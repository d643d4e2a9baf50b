(* RFC 3492 parameters. *)
let base = 36
let tmin = 1
let tmax = 26
let skew = 38
let damp = 700
let initial_bias = 72
let initial_n = 128
let delimiter = '-'

let adapt delta num_points first_time =
  let delta = if first_time then delta / damp else delta / 2 in
  let delta = ref (delta + (delta / num_points)) in
  let k = ref 0 in
  while !delta > (base - tmin) * tmax / 2 do
    delta := !delta / (base - tmin);
    k := !k + base
  done;
  !k + ((base - tmin + 1) * !delta / (!delta + skew))

(* Digit values: a-z = 0..25, 0-9 = 26..35 (we emit lowercase). *)
let encode_digit d =
  if d < 26 then Char.chr (d + Char.code 'a') else Char.chr (d - 26 + Char.code '0')

(* -1 for a character outside the alphabet (no option box per digit). *)
let decode_digit c =
  match c with
  | 'a' .. 'z' -> Char.code c - Char.code 'a'
  | 'A' .. 'Z' -> Char.code c - Char.code 'A'
  | '0' .. '9' -> Char.code c - Char.code '0' + 26
  | _ -> -1

(* The RFC 3492 §6.3 encoder.  Output characters go through [emit] one
   at a time, so callers choose what to build: {!encode} fills a buffer,
   {!encodes_to} compares in place and builds nothing.  Returns the
   error message on failure. *)
let encode_into cps emit =
  let input_len = Array.length cps in
  let rec scalars i =
    i >= input_len || (Unicode.Cp.is_scalar (Array.unsafe_get cps i) && scalars (i + 1))
  in
  if not (scalars 0) then Some "input contains non-scalar code points"
  else begin
    let b = ref 0 in
    for i = 0 to input_len - 1 do
      let cp = Array.unsafe_get cps i in
      if cp < 0x80 then begin
        emit (Char.unsafe_chr cp);
        incr b
      end
    done;
    let b = !b in
    (* Emit the delimiter whenever basic code points were copied. *)
    if b > 0 then emit delimiter;
    let n = ref initial_n and delta = ref 0 and bias = ref initial_bias in
    let h = ref b in
    let error = ref None in
    while !h < input_len && Option.is_none !error do
      let m = ref max_int in
      for i = 0 to input_len - 1 do
        let cp = Array.unsafe_get cps i in
        if cp >= !n && cp < !m then m := cp
      done;
      if !m - !n > (max_int - !delta) / (!h + 1) then error := Some "overflow"
      else begin
        delta := !delta + ((!m - !n) * (!h + 1));
        n := !m;
        for i = 0 to input_len - 1 do
          let cp = Array.unsafe_get cps i in
          if cp < !n && (incr delta; !delta = 0) then error := Some "overflow"
          else if cp = !n then begin
            (* Encode delta as a variable-length integer. *)
            let q = ref !delta and k = ref base in
            let continue = ref true in
            while !continue do
              let t =
                if !k <= !bias then tmin
                else if !k >= !bias + tmax then tmax
                else !k - !bias
              in
              if !q < t then begin
                emit (encode_digit !q);
                continue := false
              end
              else begin
                emit (encode_digit (t + ((!q - t) mod (base - t))));
                q := (!q - t) / (base - t);
                k := !k + base
              end
            done;
            bias := adapt !delta (!h + 1) (!h = b);
            delta := 0;
            incr h
          end
        done;
        incr delta;
        incr n
      end
    done;
    !error
  end

let encode cps =
  let buf = Buffer.create (Array.length cps * 2) in
  match encode_into cps (Buffer.add_char buf) with
  | Some m -> Error m
  | None -> Ok (Buffer.contents buf)

let encodes_to cps s =
  let n = String.length s in
  let pos = ref 0 and same = ref true in
  let emit c =
    if !pos >= n || String.unsafe_get s !pos <> c then same := false;
    incr pos
  in
  match encode_into cps emit with
  | Some m -> Error m
  | None -> Ok (!same && !pos = n)

(* Decoding inserts into one array: every output code point consumes at
   least one input character, so [String.length s] bounds the output
   and each insertion is an in-place shift. *)
let decode s =
  let n_in = String.length s in
  (* Split at the last delimiter. *)
  let last_delim = match String.rindex_opt s delimiter with Some i -> i | None -> -1 in
  let basic_end = if last_delim >= 0 then last_delim else 0 in
  let out = Array.make n_in 0 in
  let rec copy_basic i =
    if i >= basic_end then true
    else begin
      let c = Char.code (String.unsafe_get s i) in
      c < 0x80
      && begin
           Array.unsafe_set out i c;
           copy_basic (i + 1)
         end
    end
  in
  if not (copy_basic 0) then Error "non-basic code point before delimiter"
  else begin
    let len = ref basic_end in
    let i = ref 0 and n = ref initial_n and bias = ref initial_bias in
    let pos = ref (if last_delim >= 0 then basic_end + 1 else 0) in
    let error = ref None in
    while !pos < n_in && Option.is_none !error do
      let oldi = !i and w = ref 1 and k = ref base in
      let continue = ref true in
      while !continue && Option.is_none !error do
        if !pos >= n_in then error := Some "truncated variable-length integer"
        else
          let digit = decode_digit s.[!pos] in
          if digit < 0 then
            error := Some (Printf.sprintf "invalid punycode digit %C" s.[!pos])
          else begin
            incr pos;
            if digit > (max_int - !i) / !w then error := Some "overflow"
            else begin
              i := !i + (digit * !w);
              let t =
                if !k <= !bias then tmin
                else if !k >= !bias + tmax then tmax
                else !k - !bias
              in
              if digit < t then continue := false
              else if !w > max_int / (base - t) then error := Some "overflow"
              else begin
                w := !w * (base - t);
                k := !k + base
              end
            end
          end
      done;
      if Option.is_none !error then begin
        let out_len = !len + 1 in
        bias := adapt (!i - oldi) out_len (oldi = 0);
        if !i / out_len > max_int - !n then error := Some "overflow"
        else begin
          n := !n + (!i / out_len);
          i := !i mod out_len;
          if not (Unicode.Cp.is_scalar !n) then
            error := Some (Printf.sprintf "decoded non-scalar %s" (Unicode.Cp.to_string !n))
          else begin
            (* Insert n at position i. *)
            Array.blit out !i out (!i + 1) (!len - !i);
            out.(!i) <- !n;
            len := out_len;
            incr i
          end
        end
      end
    done;
    match !error with Some m -> Error m | None -> Ok (Array.sub out 0 !len)
  end

let encode_utf8 text = encode (Unicode.Codec.cps_of_utf8 text)

let decode_utf8 s =
  match decode s with Ok cps -> Ok (Unicode.Codec.utf8_of_cps cps) | Error _ as e -> e
