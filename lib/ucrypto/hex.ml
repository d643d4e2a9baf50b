let digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) digits.[c lsr 4];
    Bytes.unsafe_set b ((2 * i) + 1) digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

(* -1 for a non-hex character. *)
let nibble = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else begin
    let b = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      let hi = nibble (String.unsafe_get s (2 * i))
      and lo = nibble (String.unsafe_get s ((2 * i) + 1)) in
      if hi < 0 || lo < 0 then ok := false
      else Bytes.unsafe_set b i (Char.unsafe_chr ((hi lsl 4) lor lo))
    done;
    if !ok then Some (Bytes.unsafe_to_string b) else None
  end
