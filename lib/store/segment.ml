let magic = "USTORESEG1\n"
let magic_len = String.length magic

let appends = Obs.Registry.counter ~help:"Records appended to store segments" "unicert_store_appends_total"
let fsyncs = Obs.Registry.counter ~help:"fsync calls issued by the store" "unicert_store_fsync_total"

let u32be n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.unsafe_to_string b

let read_u32be s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

type writer = {
  oc : out_channel;
  headers : Buffer.t;  (* concatenated (len, crc) pairs, 8 bytes per record *)
  mutable n : int;
  mutable poisoned : bool;
}

let digest_hex headers n = Ucrypto.Sha256.hex (headers ^ u32be n)

let seal_hex w = digest_hex (Buffer.contents w.headers) w.n
let count w = w.n

let create path =
  let oc = open_out_bin path in
  output_string oc magic;
  { oc; headers = Buffer.create 256; n = 0; poisoned = false }

(* Apply a Chaos decision to a fully built frame.  On a torn write the
   prefix is flushed to the OS and the writer poisoned before the
   simulated kill, so nothing written later can repair the tear. *)
let write_frame w ~op frame =
  match Chaos.plan_write ~op ~len:(String.length frame) with
  | Chaos.Pass -> output_string w.oc frame
  | Chaos.Flip { offset } ->
      let b = Bytes.of_string frame in
      Bytes.set b offset (Char.chr (Char.code (Bytes.get b offset) lxor 0x10));
      output_bytes w.oc b
  | Chaos.Prefix { len; crash } ->
      output_string w.oc (String.sub frame 0 len);
      flush w.oc;
      if crash then (
        w.poisoned <- true;
        Obs.Trace.instant ~cat:"store" ("chaos.torn:" ^ op);
        raise (Chaos.Crashed ("torn:" ^ op)))

let guard w f =
  if w.poisoned then ()
  else
    try f ()
    with Chaos.Crashed _ as e ->
      w.poisoned <- true;
      raise e

let append w payload =
  guard w (fun () ->
      let header = u32be (String.length payload) ^ u32be (Crc32.string payload) in
      write_frame w ~op:"segment.append" ("R" ^ header ^ payload);
      (* The writer's view of the segment tracks planned frames even
         when Chaos shorted the write — that is the lying-disk model;
         the divergence is what fsck must catch. *)
      Buffer.add_string w.headers header;
      w.n <- w.n + 1;
      Obs.Counter.inc appends;
      Chaos.point "segment.append.after")

let sync w =
  if not w.poisoned then (
    flush w.oc;
    Unix.fsync (Unix.descr_of_out_channel w.oc);
    Obs.Counter.inc fsyncs)

let seal w =
  guard w (fun () ->
      Chaos.point "segment.seal.before";
      let digest = Ucrypto.Sha256.digest (Buffer.contents w.headers ^ u32be w.n) in
      write_frame w ~op:"segment.seal" ("S" ^ u32be w.n ^ digest);
      flush w.oc;
      Unix.fsync (Unix.descr_of_out_channel w.oc);
      Obs.Counter.inc fsyncs;
      Chaos.point "segment.seal.after")

let close w =
  if w.poisoned then (try Stdlib.close_out_noerr w.oc with _ -> ())
  else close_out w.oc

type problem =
  | Bad_header
  | Torn_tail of { offset : int }
  | Bad_frame of { offset : int }
  | Bad_crc of { record : int; offset : int }
  | Bad_seal
  | Trailing of { offset : int }

let problem_name = function
  | Bad_header -> "bad_header"
  | Torn_tail _ -> "torn_tail"
  | Bad_frame _ -> "bad_frame"
  | Bad_crc _ -> "bad_crc"
  | Bad_seal -> "bad_seal"
  | Trailing _ -> "trailing_garbage"

let describe_problem = function
  | Bad_header -> "segment header magic mismatch"
  | Torn_tail { offset } -> Printf.sprintf "torn record tail at byte %d" offset
  | Bad_frame { offset } -> Printf.sprintf "unknown frame tag at byte %d" offset
  | Bad_crc { record; offset } ->
      Printf.sprintf "CRC mismatch on record %d at byte %d" record offset
  | Bad_seal -> "seal footer does not match records"
  | Trailing { offset } -> Printf.sprintf "trailing bytes after seal at %d" offset

type scan = {
  payloads : string list;
  count : int;
  sealed : bool;
  good_bytes : int;
  ends : int array;
  seal_hex : string;
  problem : problem option;
}

let scan ?(keep_payloads = true) path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        really_input_string ic len)
  with
  | exception Sys_error e -> Error e
  | s ->
      let len = String.length s in
      let headers = Buffer.create 256 in
      let payloads = ref [] in
      let ends = ref [] in
      let finish ~pos ~n ~sealed problem =
        {
          payloads = List.rev !payloads;
          count = n;
          sealed;
          good_bytes = pos;
          ends = Array.of_list (List.rev !ends);
          seal_hex = digest_hex (Buffer.contents headers) n;
          problem;
        }
      in
      if len < magic_len || String.sub s 0 magic_len <> magic then
        Ok
          {
            payloads = [];
            count = 0;
            sealed = false;
            good_bytes = 0;
            ends = [||];
            seal_hex = digest_hex "" 0;
            problem = Some Bad_header;
          }
      else
        let rec loop pos n =
          if pos = len then Ok (finish ~pos ~n ~sealed:false None)
          else
            match s.[pos] with
            | 'R' ->
                if pos + 9 > len then Ok (finish ~pos ~n ~sealed:false (Some (Torn_tail { offset = pos })))
                else
                  let plen = read_u32be s (pos + 1) in
                  let crc = read_u32be s (pos + 5) in
                  if pos + 9 + plen > len then
                    Ok (finish ~pos ~n ~sealed:false (Some (Torn_tail { offset = pos })))
                  else if Crc32.sub s ~pos:(pos + 9) ~len:plen <> crc then
                    Ok (finish ~pos ~n ~sealed:false (Some (Bad_crc { record = n; offset = pos })))
                  else (
                    if keep_payloads then payloads := String.sub s (pos + 9) plen :: !payloads;
                    Buffer.add_string headers (String.sub s (pos + 1) 8);
                    ends := (pos + 9 + plen) :: !ends;
                    loop (pos + 9 + plen) (n + 1))
            | 'S' ->
                if pos + 37 > len then Ok (finish ~pos ~n ~sealed:false (Some (Torn_tail { offset = pos })))
                else
                  let fcount = read_u32be s (pos + 1) in
                  let fdigest = String.sub s (pos + 5) 32 in
                  let expect = Ucrypto.Sha256.digest (Buffer.contents headers ^ u32be n) in
                  if fcount <> n || not (String.equal fdigest expect) then
                    Ok (finish ~pos ~n ~sealed:false (Some Bad_seal))
                  else if pos + 37 < len then
                    Ok (finish ~pos:(pos + 37) ~n ~sealed:true (Some (Trailing { offset = pos + 37 })))
                  else Ok (finish ~pos:(pos + 37) ~n ~sealed:true None)
            | _ -> Ok (finish ~pos ~n ~sealed:false (Some (Bad_frame { offset = pos })))
        in
        loop magic_len 0

let reopen path =
  match scan ~keep_payloads:false path with
  | Error e -> invalid_arg (Printf.sprintf "Segment.reopen %s: %s" path e)
  | Ok { sealed = true; _ } -> invalid_arg (Printf.sprintf "Segment.reopen %s: sealed" path)
  | Ok { problem = Some p; _ } ->
      invalid_arg (Printf.sprintf "Segment.reopen %s: %s" path (describe_problem p))
  | Ok { count = n; good_bytes; _ } ->
      (* Rebuild the seal-digest accumulator from the intact records. *)
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic good_bytes)
      in
      let headers = Buffer.create 256 in
      let pos = ref magic_len in
      for _ = 1 to n do
        Buffer.add_string headers (String.sub s (!pos + 1) 8);
        pos := !pos + 9 + read_u32be s (!pos + 1)
      done;
      let oc = open_out_gen [ Open_wronly; Open_binary; Open_append ] 0o644 path in
      { oc; headers; n; poisoned = false }

let truncate path n = Unix.truncate path n
