type 'a t = { scale : int; seed : int; next_index : int; state : 'a }

exception Invalid of string

(* A magic prefix plus an explicit format-version line let [load]
   reject non-checkpoint files and stale formats loudly, instead of
   relying on Marshal's (unsafe) failure modes or silently restarting
   a run the operator believed was resumable. *)
let magic = "UNICERT-CKPT2\n"
let old_magics = [ "UNICERT-CKPT1\n" ]

(* Bump on any change to a marshalled state type.  v003: the fetch
   cursor's [Merkle.t] gained its subtree-hash memo.  v004: the fetch
   cursor keeps its delivered history in a journal beside it and holds
   only the journal's record count and length. *)
let version = 4
let version_line = Printf.sprintf "v%03d\n" version

let shard_file path shard = Printf.sprintf "%s.shard%d" path shard
let journal_file path = path ^ ".raw"

let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc magic;
  output_string oc version_line;
  Marshal.to_channel oc t [];
  close_out oc;
  Unix.rename tmp path

let invalid path fmt =
  Printf.ksprintf (fun s -> raise (Invalid (Printf.sprintf "%s: %s" path s))) fmt

let load path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let head =
            try really_input_string ic (String.length magic)
            with End_of_file ->
              invalid path "not a checkpoint (file shorter than the header)"
          in
          if head <> magic then
            if List.mem head old_magics then
              invalid path
                "checkpoint written by an incompatible older format (%s); \
                 delete it or rerun without --resume"
                (String.trim head)
            else invalid path "not a checkpoint (bad magic)";
          let vline =
            try really_input_string ic (String.length version_line)
            with End_of_file -> invalid path "truncated version header"
          in
          if vline <> version_line then
            invalid path
              "checkpoint format version %s does not match this binary's %s; \
               delete it or rerun without --resume"
              (String.trim vline) (String.trim version_line);
          match Marshal.from_channel ic with
          | t -> Some t
          | exception _ -> invalid path "corrupt checkpoint payload")

(* --- stale cursor handling ---------------------------------------------

   Parallel runs keep one cursor per shard ([path.shard<k>]) and fetch
   runs one per log ([path.fetch<k>]).  When a later run uses fewer
   shards/logs, the high-numbered files are never reused — left behind
   they look like live state and confuse both operators and resume
   logic, so callers detect them up front (warn) and delete them once a
   run completes successfully.

   A fetch cursor's journal ([path.fetch<k>.raw]) is judged with its
   cursor: stale together, deleted together.

   The two families have independent lifetimes: a generate-sourced run
   owns only the shard cursors, and its shard count says nothing about
   whether a [.fetch<k>] file is live resume state from an interrupted
   fetch.  Callers therefore pass one active count per family;
   [active_fetch = None] means "this run does not own fetch cursors —
   leave every one of them alone" (and symmetrically for
   [active_shards]). *)

let cursor_suffixes = [ "shard"; "fetch" ]

let stale_cursors path ~active_shards ~active_fetch =
  let dir = Filename.dirname path and base = Filename.basename path in
  let active_of = function
    | "shard" -> active_shards
    | "fetch" -> active_fetch
    | _ -> None
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             List.find_map
               (fun suffix ->
                 let prefix = base ^ "." ^ suffix in
                 if
                   String.length name > String.length prefix
                   && String.sub name 0 (String.length prefix) = prefix
                 then
                   let rest =
                     String.sub name (String.length prefix)
                       (String.length name - String.length prefix)
                   in
                   (* A fetch cursor's journal goes with its cursor. *)
                   let rest =
                     if suffix = "fetch" && Filename.check_suffix rest ".raw"
                     then Filename.chop_suffix rest ".raw"
                     else rest
                   in
                   match (active_of suffix, int_of_string_opt rest) with
                   | Some active, Some k when k >= active ->
                       Some (Filename.concat dir name)
                   | _ -> None
                 else None)
               cursor_suffixes)
      |> List.sort compare

let remove_stale path ~active_shards ~active_fetch =
  let stale = stale_cursors path ~active_shards ~active_fetch in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) stale;
  stale
