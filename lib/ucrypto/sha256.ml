(* FIPS 180-4 SHA-256.  The compression function is the C kernel in
   sha256_stubs.c; this module buffers partial blocks, pads, and runs
   HMAC around it.  Every bound the kernel relies on is checked here:
   it is only ever handed whole 64-byte blocks inside its source. *)

(* [compress h src off n] absorbs the [n] blocks of [src] starting at
   byte [off] into the 32-byte big-endian chaining state [h]. *)
external compress : Bytes.t -> string -> int -> int -> unit
  = "unicert_sha256_compress"
[@@noalloc]

(* The initial chaining state, big-endian: once the last block is
   absorbed the state is the digest itself. *)
let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

type ctx = {
  h : Bytes.t;    (* chaining state *)
  buf : Bytes.t;  (* pending partial block; two blocks' room for padding *)
  mutable n : int;      (* bytes pending in [buf] *)
  mutable total : int;  (* total message bytes absorbed *)
}

let resume state ~total =
  { h = Bytes.of_string state; buf = Bytes.create 128; n = 0; total }

let init () = resume iv ~total:0

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
      compress ctx.h (Bytes.unsafe_to_string ctx.buf) 0 1;
      ctx.n <- 0
    end
  end;
  let blocks = (len - !pos) / 64 in
  if blocks > 0 then begin
    compress ctx.h s !pos blocks;
    pos := !pos + (64 * blocks)
  end;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf ctx.n (len - !pos);
    ctx.n <- ctx.n + (len - !pos)
  end

(* Padding is 0x80, zeros, and the 64-bit big-endian bit length, in one
   block when the pending bytes leave room for it, else in two. *)
let final ctx =
  let padded = if ctx.n + 9 > 64 then 128 else 64 in
  Bytes.set ctx.buf ctx.n '\x80';
  Bytes.fill ctx.buf (ctx.n + 1) (padded - 8 - ctx.n - 1) '\000';
  Bytes.set_int64_be ctx.buf (padded - 8) (Int64.of_int (ctx.total * 8));
  compress ctx.h (Bytes.unsafe_to_string ctx.buf) 0 (padded / 64);
  Bytes.to_string ctx.h

let digest msg =
  let ctx = init () in
  update ctx msg;
  final ctx

let hex msg = Hex.encode (digest msg)

(* HMAC with precomputable key midstates: the inner/outer pad blocks
   depend only on the key, so a reused key (every issuer signature)
   skips two of the compression calls per MAC. *)
type hmac_key = { inner : string; outer : string }

let hmac_init key =
  let key = if String.length key > 64 then digest key else key in
  let klen = String.length key in
  let state pad =
    let block =
      String.init 64 (fun i ->
          Char.chr ((if i < klen then Char.code key.[i] else 0) lxor pad))
    in
    let h = Bytes.of_string iv in
    compress h block 0 1;
    Bytes.unsafe_to_string h
  in
  { inner = state 0x36; outer = state 0x5C }

(* The outer hash reuses the inner context: its state restarts from
   the outer midstate, one (already absorbed) pad block in. *)
let hmac_with hk msg =
  let ctx = resume hk.inner ~total:64 in
  update ctx msg;
  let inner_digest = final ctx in
  Bytes.blit_string hk.outer 0 ctx.h 0 32;
  ctx.n <- 0;
  ctx.total <- 64;
  update ctx inner_digest;
  final ctx

let hmac ~key msg = hmac_with (hmac_init key) msg
