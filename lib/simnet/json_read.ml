type t =
  | Null
  | Jbool of bool
  | Num of float
  | Jstr of string
  | Jarr of t list
  | Jobj of (string * t) list

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* The deepest canonical document has eight levels (batch request, spec,
   scenario list, scenario, fault, capacity, steps, step); the cap only
   has to stop a hostile run of brackets before it costs time or stack. *)
let max_depth = 64

module Keys = Set.Make (String)

let parse (src : string) : t =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> bad "expected %c at byte %d, found %c" c !pos c'
    | None -> bad "expected %c at byte %d, found end of input" c !pos
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub src !pos l = word then begin
      pos := !pos + l;
      value
    end
    else bad "bad literal at byte %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; loop ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; loop ()
          | Some '/' -> advance (); Buffer.add_char b '/'; loop ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; loop ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; loop ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; loop ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; loop ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; loop ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then bad "truncated \\u escape";
              let hex = String.sub src !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> bad "bad \\u escape %s" hex
              in
              if code > 0xff then bad "\\u escape beyond latin-1 unsupported";
              Buffer.add_char b (Char.chr code);
              loop ()
          | _ -> bad "bad escape at byte %d" !pos)
      | Some c ->
          advance ();
          Buffer.add_char b c;
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    let lexeme = String.sub src start (!pos - start) in
    match float_of_string_opt lexeme with
    | Some f when Float.is_finite f -> Num f
    | Some _ -> bad "number %S out of range at byte %d" lexeme start
    | None -> bad "bad number %S at byte %d" lexeme start
  in
  let rec parse_value depth =
    if depth > max_depth then
      bad "nesting deeper than %d at byte %d" max_depth !pos;
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Jobj []
        end
        else begin
          (* an ordered set, so the cost does not depend on the keys *)
          let fields = ref [] and seen = ref Keys.empty in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            if Keys.mem k !seen then bad "duplicate field %S" k;
            seen := Keys.add k !seen;
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> bad "expected , or } at byte %d" !pos
          in
          members ();
          Jobj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Jarr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> bad "expected , or ] at byte %d" !pos
          in
          elements ();
          Jarr (List.rev !items)
        end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> bad "unexpected end of input"
  in
  let v = parse_value 1 in
  skip_ws ();
  if !pos <> n then bad "trailing bytes after JSON value at byte %d" !pos;
  v

(* -- declared codecs --------------------------------------------------- *)

module J = Telemetry.Json

(* [enc] appends the value's bytes. [dec what k j] decodes the value of
   field [k] of the object named [what] ([k = ""] at the top); the path
   ["what.k"] is built only for an error message or a nested object. *)
type 'a codec = {
  name : string;
  enc : Buffer.t -> 'a -> unit;
  dec : string -> string -> t -> 'a;
}

let path what k = if k = "" then what else what ^ "." ^ k
let leaf enc dec = { name = "value"; enc; dec }
let expected what k kind = bad "%s: expected %s" (path what k) kind
let emit_with render b v = Buffer.add_string b (render v)

let float =
  leaf (emit_with J.float_full) (fun what k -> function
    | Num f -> f
    | _ -> expected what k "a number")

let int =
  leaf (emit_with J.int) (fun what k -> function
    | Num f when Float.is_integer f && Float.abs f <= 1e15 -> int_of_float f
    | _ -> expected what k "an integer")

let bool =
  leaf (emit_with J.bool) (fun what k -> function
    | Jbool b -> b
    | _ -> expected what k "a boolean")

let string =
  leaf (emit_with J.str) (fun what k -> function
    | Jstr s -> s
    | _ -> expected what k "a string")

let enum names =
  leaf
    (fun b v -> string.enc b (fst (List.find (fun (_, v') -> v' = v) names)))
    (fun what k j ->
      let s = string.dec what k j in
      match List.assoc_opt s names with
      | Some v -> v
      | None -> bad "%s: unknown value %S" (path what k) s)

let conv to_wire of_wire c =
  leaf
    (fun b v -> c.enc b (to_wire v))
    (fun what k j -> of_wire (c.dec what k j))

let nullable c =
  leaf
    (fun b -> function None -> Buffer.add_string b "null" | Some v -> c.enc b v)
    (fun what k -> function Null -> None | j -> Some (c.dec what k j))

let list c =
  leaf
    (fun b vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          c.enc b v)
        vs;
      Buffer.add_char b ']')
    (fun what k -> function
      | Jarr items -> List.map (c.dec what k) items
      | _ -> expected what k "an array")

let pair a b =
  leaf
    (fun buf (x, y) ->
      Buffer.add_char buf '[';
      a.enc buf x;
      Buffer.add_string buf ", ";
      b.enc buf y;
      Buffer.add_char buf ']')
    (fun what k -> function
      | Jarr [ x; y ] -> (a.dec what k x, b.dec what k y)
      | _ -> expected what k "a pair")

let as_obj what = function
  | Jobj fields -> fields
  | _ -> bad "%s: expected an object" what

(* One declaration runs in one of three modes: [Emit] appends each
   field to the buffer in call order, [Read] looks the fields up in a
   parsed object (counting the hits, so that any field no call asked
   for is an unknown one), and [Probe] runs an arm only as far as its
   tag. *)
type reader = {
  what : string;
  fields : (string * t) list;
  mutable asked : string list;
  mutable hits : int;
}

type emitter = { buf : Buffer.t; mutable first : bool }
type obj = Emit of emitter | Read of reader | Probe

exception Tagged of string * string

let key e k =
  if e.first then e.first <- false else Buffer.add_string e.buf ", ";
  string.enc e.buf k;
  Buffer.add_string e.buf ": "

let braces b f =
  Buffer.add_char b '{';
  f { buf = b; first = true };
  Buffer.add_char b '}'

let assoc c =
  leaf
    (fun b kvs ->
      braces b (fun e ->
          List.iter
            (fun (k, v) ->
              key e k;
              c.enc e.buf v)
            kvs))
    (fun what k j ->
      let what = path what k in
      List.map (fun (k, v) -> (k, c.dec what k v)) (as_obj what j))

let embed encode of_json =
  leaf (emit_with encode) (fun what k j ->
      match of_json j with
      | Ok v -> v
      | Error msg -> bad "%s: %s" (path what k) msg)

let lookup r k =
  r.asked <- k :: r.asked;
  match List.assoc_opt k r.fields with
  | Some _ as j ->
      r.hits <- r.hits + 1;
      j
  | None -> None

let read what j f =
  let r = { what; fields = as_obj what j; asked = []; hits = 0 } in
  let v = f r in
  if r.hits < List.length r.fields then
    List.iter
      (fun (k, _) ->
        if not (List.mem k r.asked) then bad "%s: unknown field %S" what k)
      r.fields;
  v

let record what template decl =
  {
    name = what;
    enc = (fun b v -> braces b (fun e -> ignore (decl (Emit e) v)));
    dec =
      (fun what k j -> read (path what k) j (fun r -> decl (Read r) template));
  }

let select r arms decl =
  let tagged t =
    match decl Probe t with
    | _ -> invalid_arg "Json_read.cases: an arm emitted no tag"
    | exception Tagged (field, name) -> (field, name, t)
  in
  match List.map tagged (arms ()) with
  | [] -> invalid_arg "Json_read.cases: no arms"
  | (field, _, _) :: _ as arms -> (
      let name =
        match List.assoc_opt field r.fields with
        | Some j -> string.dec r.what field j
        | None -> bad "%s: missing field %S" r.what field
      in
      match List.find_opt (fun (_, n, _) -> n = name) arms with
      | Some (_, _, t) -> decl (Read r) t
      | None -> bad "%s: unknown %s %S" r.what field name)

let cases o arms decl v =
  match o with Read r -> select r arms decl | Emit _ | Probe -> decl o v

let variant what arms decl =
  {
    name = what;
    enc = (fun b v -> braces b (fun e -> ignore (decl (Emit e) v)));
    dec = (fun what k j -> read (path what k) j (fun r -> select r arms decl));
  }

let tag ?(field = "kind") o name =
  match o with
  | Emit e ->
      key e field;
      string.enc e.buf name
  | Probe -> raise (Tagged (field, name))
  | Read r -> ignore (lookup r field)

let req o k c v =
  match o with
  | Emit e ->
      key e k;
      c.enc e.buf v;
      v
  | Probe -> v
  | Read r -> (
      match lookup r k with
      | Some j -> c.dec r.what k j
      | None -> bad "%s: missing field %S" r.what k)

let opt o k c v =
  match o with
  | Read r -> ( match lookup r k with Some j -> c.dec r.what k j | None -> v)
  | Emit _ | Probe -> req o k c v

let maybe o k c v =
  match (o, v) with
  | Read r, _ -> Option.map (c.dec r.what k) (lookup r k)
  | Emit _, Some x -> Some (req o k c x)
  | (Emit _ | Probe), _ -> v

(* -- the error boundary ------------------------------------------------ *)

let guard f =
  match f () with
  | v -> Ok v
  | exception (Bad msg | Invalid_argument msg) -> Error msg

let encode c v =
  let b = Buffer.create 256 in
  c.enc b v;
  Buffer.contents b

let of_json c j = guard (fun () -> c.dec c.name "" j)
let decode c src = guard (fun () -> c.dec c.name "" (parse src))

(* -- typed field access ------------------------------------------------ *)

let field fields k = List.assoc_opt k fields

let get what c fields k =
  match field fields k with
  | Some j -> c.dec what k j
  | None -> bad "%s: missing field %S" what k

let get_float what = get what float
let get_int what = get what int
let get_str what = get what string
