module S = Simnet.Scenario

let hooks plan ~replica =
  let inj = Injector.create ~salt:replica plan in
  { S.channel = Injector.channel inj; setup = Injector.install inj }

let run ?jobs s =
  match S.compile s with
  | S.Runnable c ->
      let cfgs =
        match (s.S.fault, c.S.wire) with
        | None, _ | _, None -> c.S.configs
        | Some plan, Some wire ->
            Array.mapi
              (fun i cfg -> wire cfg (hooks plan ~replica:i))
              c.S.configs
      in
      c.S.pack (c.S.run_many ?jobs cfgs)
