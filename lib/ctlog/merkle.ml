(* Node hashes in the flat in-order layout: leaf [i] sits at [2i], and
   the complete, aligned subtree of [2^k] leaves starting at leaf [lo]
   at [2 lo + 2^k - 1].  Leaf slots are filled by [append]; interior
   slots are memoised the first time a range computation crosses them
   ([""] = not yet computed).  Only complete subtrees are ever stored,
   and their hash cannot change once their leaves exist, so a memo
   entry is never stale: once the memo is warm a tree head over any
   size hashes O(log n) nodes, and a proof O(log^2 n) at most. *)
type t = { mutable nodes : string array; mutable len : int }

let create () = { nodes = Array.make 32 ""; len = 0 }

let leaf_hash data = Ucrypto.Sha256.digest ("\x00" ^ data)
let node_hash l r = Ucrypto.Sha256.digest ("\x01" ^ l ^ r)
let empty_root = Ucrypto.Sha256.digest ""

let append t leaf =
  if 2 * t.len >= Array.length t.nodes then begin
    let bigger = Array.make (2 * Array.length t.nodes) "" in
    Array.blit t.nodes 0 bigger 0 (Array.length t.nodes);
    t.nodes <- bigger
  end;
  t.nodes.(2 * t.len) <- leaf_hash leaf;
  t.len <- t.len + 1;
  t.len - 1

let size t = t.len

(* Largest power of two strictly less than n (n >= 2). *)
let split_point n =
  let k = ref 1 in
  while !k * 2 < n do
    k := !k * 2
  done;
  !k

(* MTH over leaves [lo, hi).  A power-of-two range starting at a
   multiple of its size is a complete subtree, so it goes through the
   memo; the RFC 6962 split sends every left branch to such a range. *)
let rec mth t lo hi =
  let n = hi - lo in
  if n = 0 then empty_root
  else if n = 1 then t.nodes.(2 * lo)
  else if n land (n - 1) = 0 && lo land (n - 1) = 0 then begin
    let slot = (2 * lo) + n - 1 in
    let h = t.nodes.(slot) in
    if String.length h > 0 then h
    else begin
      let half = n / 2 in
      let h = node_hash (mth t lo (lo + half)) (mth t (lo + half) hi) in
      t.nodes.(slot) <- h;
      h
    end
  end
  else begin
    let k = split_point n in
    node_hash (mth t lo (lo + k)) (mth t (lo + k) hi)
  end

let root t = mth t 0 t.len

let root_of_range t n =
  if n < 0 || n > t.len then invalid_arg "Merkle.root_of_range";
  mth t 0 n

(* A compact range over leaves [0, size): the hashes of the maximal
   complete subtrees, one per set bit of [size], smallest (rightmost)
   first. *)
type compact = { c_size : int; c_hashes : string list }

let compact_empty = { c_size = 0; c_hashes = [] }
let compact_size c = c.c_size

(* Every set low bit of the old size is a subtree the new leaf
   completes. *)
let compact_push c h =
  let rec push hashes size h =
    match hashes with
    | left :: rest when size land 1 = 1 -> push rest (size lsr 1) (node_hash left h)
    | _ -> h :: hashes
  in
  { c_size = c.c_size + 1; c_hashes = push c.c_hashes c.c_size h }

(* MTH splits off the largest complete subtree as the left child, so the
   root folds the subtrees from the smallest up. *)
let compact_root c =
  match c.c_hashes with
  | [] -> empty_root
  | h :: larger -> List.fold_left (fun acc left -> node_hash left acc) h larger

(* PATH(m, D[n]) per RFC 6962 §2.1.1, over leaves [lo, hi). *)
let rec path t m lo hi =
  let n = hi - lo in
  if n <= 1 then []
  else begin
    let k = split_point n in
    if m < k then path t m lo (lo + k) @ [ mth t (lo + k) hi ]
    else path t (m - k) (lo + k) hi @ [ mth t lo (lo + k) ]
  end

let inclusion_proof t i =
  if i < 0 || i >= t.len then invalid_arg "Merkle.inclusion_proof";
  path t i 0 t.len

let verify_inclusion ~leaf ~index ~size ~proof ~root =
  if index >= size then false
  else begin
    let fn = ref index and sn = ref (size - 1) in
    let r = ref (leaf_hash leaf) in
    let ok = ref true in
    List.iter
      (fun p ->
        if !sn = 0 then ok := false
        else begin
          if !fn land 1 = 1 || !fn = !sn then begin
            r := node_hash p !r;
            if !fn land 1 = 0 then begin
              (* right-border node: skip to the next left turn *)
              while !fn land 1 = 0 && !fn <> 0 do
                fn := !fn lsr 1;
                sn := !sn lsr 1
              done
            end
          end
          else r := node_hash !r p;
          fn := !fn lsr 1;
          sn := !sn lsr 1
        end)
      proof;
    !ok && !sn = 0 && String.equal !r root
  end

(* SUBPROOF(m, D[n], b) per RFC 6962 §2.1.2. *)
let rec subproof t m lo hi b =
  let n = hi - lo in
  if m = n then if b then [] else [ mth t lo hi ]
  else begin
    let k = split_point n in
    if m <= k then subproof t m lo (lo + k) b @ [ mth t (lo + k) hi ]
    else subproof t (m - k) (lo + k) hi false @ [ mth t lo (lo + k) ]
  end

let consistency_proof t m =
  if m < 0 || m > t.len then invalid_arg "Merkle.consistency_proof";
  if m = 0 || m = t.len then [] else subproof t m 0 t.len true

(* Consistency between two historical sizes m <= n <= len: the proof a
   log server answers for get-consistency(first=m, second=n) even after
   the tree has grown past n. *)
let consistency_proof_range t m n =
  if m < 0 || m > n || n > t.len then
    invalid_arg "Merkle.consistency_proof_range";
  if m = 0 || m = n then [] else subproof t m 0 n true

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* RFC 9162 §2.1.4.2 verification algorithm. *)
let verify_consistency ~old_size ~old_root ~new_size ~new_root ~proof =
  if old_size = 0 then true
  else if old_size = new_size then proof = [] && String.equal old_root new_root
  else if proof = [] then false
  else begin
    let proof =
      if is_power_of_two old_size then old_root :: proof else proof
    in
    let proof = Array.of_list proof in
    let fn = ref (old_size - 1) and sn = ref (new_size - 1) in
    while !fn land 1 = 1 do
      fn := !fn lsr 1;
      sn := !sn lsr 1
    done;
    let fr = ref proof.(0) and sr = ref proof.(0) in
    let i = ref 1 in
    let ok = ref true in
    (try
       while !fn <> 0 || !sn <> 0 do
         if !sn = 0 then begin
           ok := false;
           raise Exit
         end;
         if !fn land 1 = 1 || !fn = !sn then begin
           if !i >= Array.length proof then begin
             ok := false;
             raise Exit
           end;
           fr := node_hash proof.(!i) !fr;
           sr := node_hash proof.(!i) !sr;
           incr i;
           if !fn land 1 = 0 then
             while !fn land 1 = 0 && !fn <> 0 do
               fn := !fn lsr 1;
               sn := !sn lsr 1
             done
         end
         else begin
           if !i >= Array.length proof then begin
             ok := false;
             raise Exit
           end;
           sr := node_hash !sr proof.(!i);
           incr i
         end;
         fn := !fn lsr 1;
         sn := !sn lsr 1
       done
     with Exit -> ());
    !ok && !i = Array.length proof
    && String.equal !fr old_root && String.equal !sr new_root
  end
