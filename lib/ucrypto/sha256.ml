(* FIPS 180-4 SHA-256 over native ints (words live in the low 32 bits).
   The compression kernel avoids bounds checks and redundant masking:
   sums of a few 32-bit words fit a 63-bit int, so only values that
   feed a shift/rotate are re-masked. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let mask = 0xFFFFFFFF
let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
            0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* Message-schedule extension + 64 rounds over a preloaded 16-word
   prefix of [w].  [h] is updated in place. *)
let rounds h w =
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
       land mask)
  done;
  (* The working variables travel as unboxed int arguments — no
     per-round stores — and rotate by argument position. *)
  let rec loop t a b c d e f g hh =
    if t = 64 then begin
      h.(0) <- (h.(0) + a) land mask;
      h.(1) <- (h.(1) + b) land mask;
      h.(2) <- (h.(2) + c) land mask;
      h.(3) <- (h.(3) + d) land mask;
      h.(4) <- (h.(4) + e) land mask;
      h.(5) <- (h.(5) + f) land mask;
      h.(6) <- (h.(6) + g) land mask;
      h.(7) <- (h.(7) + hh) land mask
    end
    else
      let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
      let ch = (e land f) lxor (lnot e land g) in
      let temp1 = hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
      let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
      let maj = (a land b) lxor (a land c) lxor (b land c) in
      loop (t + 1)
        ((temp1 + s0 + maj) land mask)
        a b c
        ((d + temp1) land mask)
        e f g
  in
  loop 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let[@inline] load_string w s base =
  for t = 0 to 15 do
    let o = base + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (String.unsafe_get s o) lsl 24)
      lor (Char.code (String.unsafe_get s (o + 1)) lsl 16)
      lor (Char.code (String.unsafe_get s (o + 2)) lsl 8)
      lor Char.code (String.unsafe_get s (o + 3)))
  done

let[@inline] load_bytes w b base =
  for t = 0 to 15 do
    let o = base + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get b o) lsl 24)
      lor (Char.code (Bytes.unsafe_get b (o + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (o + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get b (o + 3)))
  done

type ctx = {
  h : int array;
  buf : Bytes.t;  (* pending partial block *)
  w : int array;  (* scratch schedule *)
  mutable n : int;      (* bytes pending in [buf] *)
  mutable total : int;  (* total message bytes absorbed *)
}

let init () =
  { h = Array.copy iv; buf = Bytes.create 64; w = Array.make 64 0; n = 0;
    total = 0 }

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  if ctx.n > 0 then begin
    let take = min (64 - ctx.n) len in
    Bytes.blit_string s 0 ctx.buf ctx.n take;
    ctx.n <- ctx.n + take;
    pos := take;
    if ctx.n = 64 then begin
      load_bytes ctx.w ctx.buf 0;
      rounds ctx.h ctx.w;
      ctx.n <- 0
    end
  end;
  while len - !pos >= 64 do
    load_string ctx.w s !pos;
    rounds ctx.h ctx.w;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf ctx.n (len - !pos);
    ctx.n <- ctx.n + (len - !pos)
  end

let final ctx =
  let bits = ctx.total * 8 in
  Bytes.set ctx.buf ctx.n '\x80';
  let n = ctx.n + 1 in
  if n > 56 then begin
    Bytes.fill ctx.buf n (64 - n) '\000';
    load_bytes ctx.w ctx.buf 0;
    rounds ctx.h ctx.w;
    Bytes.fill ctx.buf 0 56 '\000'
  end
  else Bytes.fill ctx.buf n (56 - n) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.buf (63 - i) (Char.chr ((bits lsr (8 * i)) land 0xFF))
  done;
  load_bytes ctx.w ctx.buf 0;
  rounds ctx.h ctx.w;
  let h = ctx.h in
  String.init 32 (fun i ->
      Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))

let digest msg =
  let ctx = init () in
  update ctx msg;
  final ctx

let hex msg = Hex.encode (digest msg)

(* HMAC with precomputable key midstates: the inner/outer pad blocks
   depend only on the key, so a reused key (every issuer signature)
   skips two of the compression calls per MAC. *)
type hmac_key = { inner : int array; outer : int array }

let hmac_init key =
  let key = if String.length key > 64 then digest key else key in
  let klen = String.length key in
  let block pad =
    Bytes.init 64 (fun i ->
        Char.chr ((if i < klen then Char.code key.[i] else 0) lxor pad))
  in
  let w = Array.make 64 0 in
  let state pad =
    let h = Array.copy iv in
    load_bytes w (block pad) 0;
    rounds h w;
    h
  in
  { inner = state 0x36; outer = state 0x5C }

let hmac_with hk msg =
  let ctx =
    { h = Array.copy hk.inner; buf = Bytes.create 64; w = Array.make 64 0;
      n = 0; total = 64 }
  in
  update ctx msg;
  let inner_digest = final ctx in
  let octx =
    { h = Array.copy hk.outer; buf = Bytes.create 64; w = ctx.w; n = 0;
      total = 64 }
  in
  update octx inner_digest;
  final octx

let hmac ~key msg = hmac_with (hmac_init key) msg
