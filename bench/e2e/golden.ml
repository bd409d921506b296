(* SHA-256 of each workload's rendered output for its fixed reference
   input. A change to the output bytes fails the benchmark; when the
   change is intended, the run prints the new digest to paste here. *)

let sha =
  [
    ("packet_cold", "6d26f1f8e557c805dc7ff30c6ca696e11cb15a13224c72b7efc49f839f739645");
    ("store_rerun", "4677dd2bb7396e86d9064662452ef8f19e545f1f95cfb46e1753c4503e36eefa");
    ("fluid_figures", "fc542594476e1073f5c0cad68c7e9c649030a3c463080fd922eb027989ba79a1");
    ("serve_mix", "ac9a66df25746f0196481dfa2c1e8a5fadbca8d5f69212c21165e77b135bac99");
    ("fabric_tiny", "b994c684538391a3d2f28cadf0a2490f440a7c0e46ce1688ba88ebd4497a847d");
  ]

let check workload text =
  let got = Store.Key.sha256_hex text in
  let want = Option.value ~default:"" (List.assoc_opt workload sha) in
  if got <> want then
    Printf.eprintf "%s: output sha256 %s, expected %s\n%!" workload got want;
  got = want
