(* SHA-256 (FIPS 180-4) over strings. All arithmetic is untagged native
   [int] masked to 32 bits — on 64-bit OCaml that is mod-2^32 with no
   boxing, several times faster than the obvious Int32 version.
   It hashes a few hundred bytes of canonical JSON per key, and the
   whole payload of each legacy [dcecc1] store entry read (new entries
   carry a word checksum instead, see [Disk]).

   The compression function below deviates from the textbook loop in two
   ways, both throughput-motivated (the digest is bit-identical; the
   FIPS vectors in test_store pin it, and test_store keeps the
   straightforward loop as a differential-testing oracle):

   - rotations use a "doubled word": for x < 2^32, [x lor (x lsl 32)]
     stacks a second copy of x above the first (minus x's top bit, which
     overflows the 63-bit native int — harmless, since every bit the
     rotation needs from the high copy sits below position 31 after the
     final mask), so rotr n is a single right shift of the doubled word
     and the three rotations of each Σ/σ share one trailing mask;
   - the message schedule and the 64 working rounds are unrolled 8 at a
     time; the rounds use let-bound variable rotation — round r's state
     is (a_r, a_{r-1}, a_{r-2}, a_{r-3}, e_r, e_{r-1}, e_{r-2}, e_{r-3})
     — so the 8 shuffle stores per round of the ref-based loop collapse
     into 8 register renames per round and 8 real stores per 8 rounds. *)

let k_const =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
    0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
    0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
    0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
    0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
    0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
    0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
    0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
    0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let mask = 0xffffffff

(* ------------------------------------------------------------------ *)
(* Streaming context                                                  *)
(* ------------------------------------------------------------------ *)

type ctx = {
  st : int array;  (* 8 chaining words, each kept < 2^32 *)
  w : int array;  (* 64-word message-schedule scratch *)
  buf : Bytes.t;  (* pending partial block *)
  mutable buf_len : int;
  mutable total : int;  (* bytes absorbed so far *)
}

let init () =
  {
    st =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
        0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    w = Array.make 64 0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

(* Expand w.(0..15) to w.(16..63). One iteration handles 8 words: the
   recurrence's shortest dependence distance is 2 (w.(t-2)), so the
   bodies are independent enough to pipeline, and the loop overhead
   amortizes over 8 words instead of 1. *)
let expand (w : int array) =
  for i = 0 to 5 do
    let t = 16 + (i * 8) in
    let x = Array.unsafe_get w (t - 15) in
    let xd = x lor (x lsl 32) in
    let y = Array.unsafe_get w (t - 2) in
    let yd = y lor (y lsl 32) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16)
       + ((xd lsr 7) lxor (xd lsr 18) lxor (x lsr 3))
       + Array.unsafe_get w (t - 7)
       + ((yd lsr 17) lxor (yd lsr 19) lxor (y lsr 10)))
      land mask);
    let x = Array.unsafe_get w (t - 14) in
    let xd = x lor (x lsl 32) in
    let y = Array.unsafe_get w (t - 1) in
    let yd = y lor (y lsl 32) in
    Array.unsafe_set w (t + 1)
      ((Array.unsafe_get w (t - 15)
       + ((xd lsr 7) lxor (xd lsr 18) lxor (x lsr 3))
       + Array.unsafe_get w (t - 6)
       + ((yd lsr 17) lxor (yd lsr 19) lxor (y lsr 10)))
      land mask);
    let x = Array.unsafe_get w (t - 13) in
    let xd = x lor (x lsl 32) in
    let y = Array.unsafe_get w t in
    let yd = y lor (y lsl 32) in
    Array.unsafe_set w (t + 2)
      ((Array.unsafe_get w (t - 14)
       + ((xd lsr 7) lxor (xd lsr 18) lxor (x lsr 3))
       + Array.unsafe_get w (t - 5)
       + ((yd lsr 17) lxor (yd lsr 19) lxor (y lsr 10)))
      land mask);
    let x = Array.unsafe_get w (t - 12) in
    let xd = x lor (x lsl 32) in
    let y = Array.unsafe_get w (t + 1) in
    let yd = y lor (y lsl 32) in
    Array.unsafe_set w (t + 3)
      ((Array.unsafe_get w (t - 13)
       + ((xd lsr 7) lxor (xd lsr 18) lxor (x lsr 3))
       + Array.unsafe_get w (t - 4)
       + ((yd lsr 17) lxor (yd lsr 19) lxor (y lsr 10)))
      land mask);
    let x = Array.unsafe_get w (t - 11) in
    let xd = x lor (x lsl 32) in
    let y = Array.unsafe_get w (t + 2) in
    let yd = y lor (y lsl 32) in
    Array.unsafe_set w (t + 4)
      ((Array.unsafe_get w (t - 12)
       + ((xd lsr 7) lxor (xd lsr 18) lxor (x lsr 3))
       + Array.unsafe_get w (t - 3)
       + ((yd lsr 17) lxor (yd lsr 19) lxor (y lsr 10)))
      land mask);
    let x = Array.unsafe_get w (t - 10) in
    let xd = x lor (x lsl 32) in
    let y = Array.unsafe_get w (t + 3) in
    let yd = y lor (y lsl 32) in
    Array.unsafe_set w (t + 5)
      ((Array.unsafe_get w (t - 11)
       + ((xd lsr 7) lxor (xd lsr 18) lxor (x lsr 3))
       + Array.unsafe_get w (t - 2)
       + ((yd lsr 17) lxor (yd lsr 19) lxor (y lsr 10)))
      land mask);
    let x = Array.unsafe_get w (t - 9) in
    let xd = x lor (x lsl 32) in
    let y = Array.unsafe_get w (t + 4) in
    let yd = y lor (y lsl 32) in
    Array.unsafe_set w (t + 6)
      ((Array.unsafe_get w (t - 10)
       + ((xd lsr 7) lxor (xd lsr 18) lxor (x lsr 3))
       + Array.unsafe_get w (t - 1)
       + ((yd lsr 17) lxor (yd lsr 19) lxor (y lsr 10)))
      land mask);
    let x = Array.unsafe_get w (t - 8) in
    let xd = x lor (x lsl 32) in
    let y = Array.unsafe_get w (t + 5) in
    let yd = y lor (y lsl 32) in
    Array.unsafe_set w (t + 7)
      ((Array.unsafe_get w (t - 9)
       + ((xd lsr 7) lxor (xd lsr 18) lxor (x lsr 3))
       + Array.unsafe_get w t
       + ((yd lsr 17) lxor (yd lsr 19) lxor (y lsr 10)))
      land mask)
  done

let compress (st : int array) (w : int array) =
  expand w;
  let ra = ref (Array.unsafe_get st 0) and rb = ref (Array.unsafe_get st 1) in
  let rc = ref (Array.unsafe_get st 2) and rd = ref (Array.unsafe_get st 3) in
  let re = ref (Array.unsafe_get st 4) and rf = ref (Array.unsafe_get st 5) in
  let rg = ref (Array.unsafe_get st 6) and rh = ref (Array.unsafe_get st 7) in
  for g = 0 to 7 do
    let base = g * 8 in
    let a0 = !ra and b0 = !rb and c0 = !rc and d0 = !rd in
    let e0 = !re and f0 = !rf and g0 = !rg and h0 = !rh in
    (* round base+0: h = h0, d = d0 *)
    let ed = e0 lor (e0 lsl 32) in
    let t1 =
      h0
      + ((ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25))
      + ((e0 land f0) lxor (lnot e0 land g0))
      + Array.unsafe_get k_const base
      + Array.unsafe_get w base
    in
    let ad = a0 lor (a0 lsl 32) in
    let e1 = (d0 + t1) land mask in
    let a1 =
      (t1
      + ((ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22))
      + ((a0 land b0) lxor (a0 land c0) lxor (b0 land c0)))
      land mask
    in
    (* round base+1: h = g0, d = c0 *)
    let ed = e1 lor (e1 lsl 32) in
    let t1 =
      g0
      + ((ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25))
      + ((e1 land e0) lxor (lnot e1 land f0))
      + Array.unsafe_get k_const (base + 1)
      + Array.unsafe_get w (base + 1)
    in
    let ad = a1 lor (a1 lsl 32) in
    let e2 = (c0 + t1) land mask in
    let a2 =
      (t1
      + ((ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22))
      + ((a1 land a0) lxor (a1 land b0) lxor (a0 land b0)))
      land mask
    in
    (* round base+2: h = f0, d = b0 *)
    let ed = e2 lor (e2 lsl 32) in
    let t1 =
      f0
      + ((ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25))
      + ((e2 land e1) lxor (lnot e2 land e0))
      + Array.unsafe_get k_const (base + 2)
      + Array.unsafe_get w (base + 2)
    in
    let ad = a2 lor (a2 lsl 32) in
    let e3 = (b0 + t1) land mask in
    let a3 =
      (t1
      + ((ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22))
      + ((a2 land a1) lxor (a2 land a0) lxor (a1 land a0)))
      land mask
    in
    (* round base+3: h = e0, d = a0 *)
    let ed = e3 lor (e3 lsl 32) in
    let t1 =
      e0
      + ((ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25))
      + ((e3 land e2) lxor (lnot e3 land e1))
      + Array.unsafe_get k_const (base + 3)
      + Array.unsafe_get w (base + 3)
    in
    let ad = a3 lor (a3 lsl 32) in
    let e4 = (a0 + t1) land mask in
    let a4 =
      (t1
      + ((ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22))
      + ((a3 land a2) lxor (a3 land a1) lxor (a2 land a1)))
      land mask
    in
    (* round base+4: h = e1, d = a1 *)
    let ed = e4 lor (e4 lsl 32) in
    let t1 =
      e1
      + ((ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25))
      + ((e4 land e3) lxor (lnot e4 land e2))
      + Array.unsafe_get k_const (base + 4)
      + Array.unsafe_get w (base + 4)
    in
    let ad = a4 lor (a4 lsl 32) in
    let e5 = (a1 + t1) land mask in
    let a5 =
      (t1
      + ((ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22))
      + ((a4 land a3) lxor (a4 land a2) lxor (a3 land a2)))
      land mask
    in
    (* round base+5: h = e2, d = a2 *)
    let ed = e5 lor (e5 lsl 32) in
    let t1 =
      e2
      + ((ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25))
      + ((e5 land e4) lxor (lnot e5 land e3))
      + Array.unsafe_get k_const (base + 5)
      + Array.unsafe_get w (base + 5)
    in
    let ad = a5 lor (a5 lsl 32) in
    let e6 = (a2 + t1) land mask in
    let a6 =
      (t1
      + ((ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22))
      + ((a5 land a4) lxor (a5 land a3) lxor (a4 land a3)))
      land mask
    in
    (* round base+6: h = e3, d = a3 *)
    let ed = e6 lor (e6 lsl 32) in
    let t1 =
      e3
      + ((ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25))
      + ((e6 land e5) lxor (lnot e6 land e4))
      + Array.unsafe_get k_const (base + 6)
      + Array.unsafe_get w (base + 6)
    in
    let ad = a6 lor (a6 lsl 32) in
    let e7 = (a3 + t1) land mask in
    let a7 =
      (t1
      + ((ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22))
      + ((a6 land a5) lxor (a6 land a4) lxor (a5 land a4)))
      land mask
    in
    (* round base+7: h = e4, d = a4 *)
    let ed = e7 lor (e7 lsl 32) in
    let t1 =
      e4
      + ((ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25))
      + ((e7 land e6) lxor (lnot e7 land e5))
      + Array.unsafe_get k_const (base + 7)
      + Array.unsafe_get w (base + 7)
    in
    let ad = a7 lor (a7 lsl 32) in
    let e8 = (a4 + t1) land mask in
    let a8 =
      (t1
      + ((ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22))
      + ((a7 land a6) lxor (a7 land a5) lxor (a6 land a5)))
      land mask
    in
    ra := a8;
    rb := a7;
    rc := a6;
    rd := a5;
    re := e8;
    rf := e7;
    rg := e6;
    rh := e5
  done;
  Array.unsafe_set st 0 ((Array.unsafe_get st 0 + !ra) land mask);
  Array.unsafe_set st 1 ((Array.unsafe_get st 1 + !rb) land mask);
  Array.unsafe_set st 2 ((Array.unsafe_get st 2 + !rc) land mask);
  Array.unsafe_set st 3 ((Array.unsafe_get st 3 + !rd) land mask);
  Array.unsafe_set st 4 ((Array.unsafe_get st 4 + !re) land mask);
  Array.unsafe_set st 5 ((Array.unsafe_get st 5 + !rf) land mask);
  Array.unsafe_set st 6 ((Array.unsafe_get st 6 + !rg) land mask);
  Array.unsafe_set st 7 ((Array.unsafe_get st 7 + !rh) land mask)

(* Big-endian block loads, 8 bytes per read. The boxed [int64]s are
   let-bound and consumed immediately by shift/to_int, which the native
   backend unboxes locally — no allocation per word. *)
let load_string (w : int array) (s : string) base =
  for t = 0 to 7 do
    let v = String.get_int64_be s (base + (8 * t)) in
    Array.unsafe_set w (2 * t) (Int64.to_int (Int64.shift_right_logical v 32));
    Array.unsafe_set w ((2 * t) + 1) (Int64.to_int v land mask)
  done

let load_bytes (w : int array) (b : Bytes.t) base =
  for t = 0 to 7 do
    let v = Bytes.get_int64_be b (base + (8 * t)) in
    Array.unsafe_set w (2 * t) (Int64.to_int (Int64.shift_right_logical v 32));
    Array.unsafe_set w ((2 * t) + 1) (Int64.to_int v land mask)
  done

let feed ctx (s : string) =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let p = ref 0 and n = ref len in
  (* top up a pending partial block first *)
  if ctx.buf_len > 0 then begin
    let take = Stdlib.min (64 - ctx.buf_len) !n in
    Bytes.blit_string s !p ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    p := !p + take;
    n := !n - take;
    if ctx.buf_len = 64 then begin
      load_bytes ctx.w ctx.buf 0;
      compress ctx.st ctx.w;
      ctx.buf_len <- 0
    end
  end;
  (* whole blocks stream straight from [s] *)
  while !n >= 64 do
    load_string ctx.w s !p;
    compress ctx.st ctx.w;
    p := !p + 64;
    n := !n - 64
  done;
  if !n > 0 then begin
    Bytes.blit_string s !p ctx.buf 0 !n;
    ctx.buf_len <- !n
  end

let final ctx =
  (* the remainder, the 0x80 terminator and the 64-bit big-endian bit
     length go into a one- or two-block tail buffer *)
  let rem = ctx.buf_len in
  let tail_len = if rem + 1 + 8 <= 64 then 64 else 128 in
  let tail = Bytes.make tail_len '\000' in
  Bytes.blit ctx.buf 0 tail 0 rem;
  Bytes.set tail rem '\x80';
  let bitlen = ctx.total * 8 in
  for i = 0 to 7 do
    Bytes.set tail (tail_len - 1 - i)
      (Char.unsafe_chr ((bitlen lsr (8 * i)) land 0xff))
  done;
  load_bytes ctx.w tail 0;
  compress ctx.st ctx.w;
  if tail_len = 128 then begin
    load_bytes ctx.w tail 64;
    compress ctx.st ctx.w
  end;
  ctx.buf_len <- 0;
  let st = ctx.st in
  Printf.sprintf "%08x%08x%08x%08x%08x%08x%08x%08x" st.(0) st.(1) st.(2)
    st.(3) st.(4) st.(5) st.(6) st.(7)

let sha256 (msg : string) : string =
  let ctx = init () in
  feed ctx msg;
  final ctx

let sha256_hex = sha256

type t = string

let code_version = "dcecc-store/1"
let of_material m = sha256 (code_version ^ "\n" ^ m)
let of_scenario s = of_material ("scenario@v1\n" ^ Simnet.Scenario.encode s)
let to_hex k = k

let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

let of_hex s =
  if String.length s = 64 && String.for_all is_hex s then Some s else None
