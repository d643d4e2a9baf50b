(* Monitor-daemon smoke test: spawn the real unicert-monitord binary
   against faulty simulated logs (10% net fault rate) and check the
   serving contract end to end:

   - a scripted query battery (per-profile subject searches incl. the
     Punycode edge cases, direct index lookups, stats) answers with
     well-formed sealed frames and the expected verdicts;
   - responses are byte-identical across --jobs 1/2/4;
   - SIGTERM is a clean shutdown: final manifest commit, exit 0, the
     store passes fsck — and a restarted daemon resumes from its
     cursors and converges to the byte-identical battery responses;
   - kill -9 after a data commit loses only the uncommitted tail:
     after `fsck --repair` a restarted daemon answers the battery
     byte-identically to an independent replay of the committed
     prefix;
   - the unicert_ingest_lag_entries gauge reports published minus
     staged entries, also after a commit;
   - the jobs=1 battery replies hash to a pinned SHA-256, so a change
     to the service, fetch or log-server code cannot silently change
     the reply bytes.

   The daemon path arrives as argv(1) from the dune rule. *)

let daemon =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: serve_smoke DAEMON_EXE";
    exit 2
  end
  else Sys.argv.(1)

let scale = 600
let seed = 5
let logs = 8
let publish_per_tick = 8

let args_with ~fault_rate ~commit_every =
  [
    "--scale"; string_of_int scale; "--seed"; string_of_int seed;
    "--source"; "fetch"; "--logs"; string_of_int logs; "--net-seed"; "41";
    "--net-fault-rate"; fault_rate;
    "--publish-per-tick"; string_of_int publish_per_tick;
    "--commit-every"; string_of_int commit_every; "--no-progress";
  ]

let base_args = args_with ~fault_rate:"0.1" ~commit_every:4

(* SHA-256 of the whole jobs=1 stdout of section 1 (12 ticks, the
   battery, then "bye").  Update it only for an intended reply change,
   and say so. *)
let pinned_digest =
  "a5576f0e7d96b7015522632e553c396440cc48995e8775dab7aa9c775cf07f02"

let failures = ref 0

let checkf ok fmt =
  Printf.ksprintf
    (fun msg ->
      if ok then Printf.printf "ok: %s\n%!" msg
      else begin
        incr failures;
        Printf.printf "FAIL: %s\n%!" msg
      end)
    fmt

(* The battery: subject searches per profile (the Table 6 edge cases),
   index lookups against all five persistent indexes, and stats. *)
let battery =
  [
    "q crtsh example";
    "q crtsh shop.xn--p1ai";
    "q sslmate xn--bcher-kva.com";
    "q facebook shop.xn--q9jyb4c";
    "q entrust xn--bcher-kva.com";
    "q entrust shop.xn--p1ai";
    "q merklemap b\xc3\xbccher";
    "ix issuer COMODO CA Limited";
    "ix ulabel b\xc3\xbccher";
    "ix domain example";
    "ix flaw Invalid Encoding";
    "ix lint e_subject_locality_not_printable_or_utf8";
    "stats";
  ]

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

(* Run the daemon over a fresh or existing store with [extra] args,
   write [input] lines to stdin, return (stdout, exit status). *)
let run_daemon ?(base = base_args) ~dir ~extra ~input () =
  let args = Array.of_list ((daemon :: "--store" :: dir :: base) @ extra) in
  let out, inp, err =
    Unix.open_process_args_full daemon args (Unix.environment ())
  in
  List.iter (fun l -> output_string inp (l ^ "\n")) input;
  close_out inp;
  let stdout_s = read_all out in
  let stderr_s = read_all err in
  let status = Unix.close_process_full (out, inp, err) in
  (stdout_s, stderr_s, status)

(* Start a long-lived daemon that runs [ticks] startup ticks and then
   waits on its stdin pipe; returns (pid, its stdout, its stdin). *)
let spawn_daemon ~dir ~ticks =
  let args =
    Array.of_list
      ((daemon :: "--store" :: dir :: base_args)
      @ [ "--ticks"; string_of_int ticks ])
  in
  let out_r, out_w = Unix.pipe () in
  let in_r, in_w = Unix.pipe () in
  let pid = Unix.create_process daemon args in_r out_w Unix.stderr in
  Unix.close out_w;
  Unix.close in_r;
  (pid, out_r, in_w)

(* Split a concatenated stream of sealed frames on their "end <hex>"
   trailers and validate each seal: payload lines rejoined + trailer
   must round-trip through Ctlog.Wire. *)
let frames_of s =
  let lines = String.split_on_char '\n' s in
  let rec go acc frame = function
    | [] -> List.rev acc
    | line :: rest ->
        if String.length line > 4 && String.sub line 0 4 = "end " then begin
          let body =
            String.concat "" (List.rev_map (fun l -> l ^ "\n") frame)
            ^ line ^ "\n"
          in
          (match Ctlog.Wire.open_ body with
          | Some payload -> go (payload :: acc) [] rest
          | None -> failwith (Printf.sprintf "unsealed frame: %S" body))
        end
        else if line = "" then go acc frame rest
        else go acc (line :: frame) rest
  in
  go [] [] lines

let first_line = function l :: _ -> l | [] -> "(empty frame)"

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "unicert-serve-smoke-%s-%d" name (Unix.getpid ()))

(* Read one sealed frame off a live daemon's stdout. *)
let read_frame ic =
  let rec go acc =
    let line = input_line ic in
    let acc = acc ^ line ^ "\n" in
    if starts_with "end " line then acc else go acc
  in
  match Ctlog.Wire.open_ (go "") with
  | Some payload -> payload
  | None -> failwith "unsealed frame"

(* "tick N committed=C staged=S" -> (C, S) *)
let tick_counts line =
  Scanf.sscanf line "tick %_d committed=%d staged=%d" (fun c s -> (c, s))

(* Independent oracle for a crashed store: replay exactly the
   committed contiguous prefix of each log's partition into a fresh
   query service, the way the daemon's restart path should.  Returns
   the replayed row count and the service. *)
let replay_committed ~dir =
  let db = Store.Db.open_ro ~dir in
  let spans =
    List.map fst (Store.Db.spans db)
    |> List.sort (fun (a : Store.Manifest.seg) b ->
           compare a.Store.Manifest.lo b.Store.Manifest.lo)
  in
  let marks =
    List.map
      (fun (lo, hi) ->
        let mark = ref lo in
        List.iter
          (fun (s : Store.Manifest.seg) ->
            if s.Store.Manifest.lo <= !mark && s.Store.Manifest.hi > !mark
               && s.Store.Manifest.lo < hi then
              mark := min s.Store.Manifest.hi hi)
          spans;
        (lo, hi, !mark))
      (Par.shards ~jobs:logs scale)
  in
  let mark_of index =
    match List.find_opt (fun (lo, hi, _) -> index >= lo && index < hi) marks with
    | Some (_, _, m) -> m
    | None -> 0
  in
  let service = Monitors.Service.create () in
  let replayed = ref 0 in
  Store.Db.iter_pairs db (fun recd rowstr ->
      let index = Store.Db.index_of_record recd in
      if index < mark_of index then begin
        incr replayed;
        match recd with
        | Store.Db.Fault _ -> ()
        | Store.Db.Cert _ -> (
            match Unicert.Pipeline.decode_row rowstr with
            | Error e -> failwith (Printf.sprintf "row %d undecodable: %s" index e)
            | Ok row ->
                Monitors.Service.stage_fields service
                  ~id:(Unicert.Pipeline.row_index row)
                  ~cns:(Unicert.Pipeline.row_cns row)
                  ~sans:(Unicert.Pipeline.row_domains row)
                  ~attrs:(Unicert.Pipeline.row_attrs row);
                let one = Unicert.Pipeline.fresh_acc () in
                Unicert.Pipeline.add_index_entries one row;
                List.iter
                  (fun (ix, entries) ->
                    List.iter
                      (fun (key, ids) ->
                        List.iter
                          (fun id ->
                            Monitors.Service.stage_index service ~index:ix ~key
                              ~id)
                          ids)
                      entries)
                  (Unicert.Pipeline.merge_accs [ one ]))
      end);
  Monitors.Service.commit service ~upto:!replayed;
  (!replayed, service)

let () =
  (* --- 1. battery semantics + byte stability across --jobs --------- *)
  let outputs =
    List.map
      (fun jobs ->
        let dir = tmp (Printf.sprintf "jobs%d" jobs) in
        rm_rf dir;
        let stdout_s, stderr_s, status =
          run_daemon ~dir
            ~extra:[ "--ticks"; "12"; "--jobs"; string_of_int jobs ]
            ~input:(battery @ [ "quit" ])
            ()
        in
        checkf (status = Unix.WEXITED 0) "jobs=%d daemon exits 0 (stderr: %s)"
          jobs (String.trim stderr_s);
        if jobs = 1 then rm_rf dir;  (* jobs=2/4 dirs reused below *)
        (jobs, dir, stdout_s))
      [ 1; 2; 4 ]
  in
  let _, _, ref_out = List.hd outputs in
  let digest = Ucrypto.Sha256.hex ref_out in
  checkf (digest = pinned_digest)
    "jobs=1 replies match the pinned digest (got %s, pinned %s)" digest
    pinned_digest;
  List.iter
    (fun (jobs, _, out) ->
      checkf (out = ref_out) "jobs=%d responses byte-identical to jobs=1" jobs)
    (List.tl outputs);
  let frames = frames_of ref_out in
  checkf
    (List.length frames = List.length battery + 1)
    "one sealed frame per query (+bye), got %d" (List.length frames);
  let reply i = first_line (List.nth frames i) in
  let expect i pred what =
    checkf (pred (reply i)) "%S -> %S %s" (List.nth battery i) (reply i) what
  in
  let hits_nonzero r = starts_with "hits " r && not (starts_with "hits 0" r) in
  expect 0 hits_nonzero "fuzzy subject search finds hits";
  expect 1 (starts_with "hits") "crtsh serves Punycode ccIDN queries";
  expect 2 (starts_with "hits") "sslmate accepts a legal A-label";
  expect 3 (starts_with "hits") "facebook serves an IDN-gTLD A-label";
  expect 4 (starts_with "hits")
    "entrust refusal is scoped to ccIDN TLDs (the conflation bugfix)";
  expect 5 (starts_with "refused") "entrust refuses Punycode ccIDN";
  expect 6 (starts_with "refused") "U-label input refused (Table 6)";
  List.iter
    (fun i -> expect i hits_nonzero "index lookup finds hits")
    [ 7; 8; 9; 10; 11 ];
  expect 12
    (starts_with (Printf.sprintf "stats committed=%d" scale))
    "whole corpus committed";

  (* --- 2. SIGTERM: clean shutdown, then resumable restart ---------- *)
  let dir = tmp "sigterm" in
  rm_rf dir;
  let pid, out_r, in_w = spawn_daemon ~dir ~ticks:4 in
  (* Let the partial ingest (4 of the ~10 ticks needed) land, then ask
     for a graceful stop while the daemon sits in its stdin loop. *)
  Unix.sleepf 2.0;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Unix.close in_w;
  Unix.close out_r;
  checkf (status = Unix.WEXITED 0) "SIGTERM is a clean exit 0";
  let report = Store.Db.fsck ~dir () in
  checkf report.Store.Db.usable "store usable after SIGTERM";
  let db = Store.Db.open_ro ~dir in
  let committed = ref 0 in
  Store.Db.iter_pairs db (fun _ _ -> incr committed);
  checkf
    (!committed > 0 && !committed < scale)
    "shutdown committed a partial prefix (%d of %d)" !committed scale;
  (* Restart over the same store: cursors + committed prefix resume,
     and the finished battery matches the fresh-run bytes. *)
  let stdout_s, stderr_s, status =
    run_daemon ~dir ~extra:[ "--ticks"; "12" ]
      ~input:(battery @ [ "quit" ]) ()
  in
  checkf (status = Unix.WEXITED 0) "restarted daemon exits 0 (stderr: %s)"
    (String.trim stderr_s);
  checkf (stdout_s = ref_out)
    "restart after SIGTERM converges to byte-identical responses";
  rm_rf dir;
  List.iter (fun (_, d, _) -> rm_rf d) (List.tl outputs);

  (* --- 3. kill -9 after a data commit, recover, compare ------------ *)
  let dir = tmp "kill" in
  rm_rf dir;
  let pid, out_r, in_w = spawn_daemon ~dir ~ticks:4 in
  (* Startup ticks end in a commit (tick 4); two more ticks stage an
     uncommitted tail.  The tick reply is the sync point, so the kill
     lands deterministically after the data commit. *)
  let ic = Unix.in_channel_of_descr out_r in
  let oc = Unix.out_channel_of_descr in_w in
  output_string oc "tick\ntick\n";
  flush oc;
  ignore (read_frame ic);
  let committed, staged = tick_counts (first_line (read_frame ic)) in
  checkf
    (committed > 0 && staged > committed)
    "kill -9 lands after a data commit with an uncommitted tail \
     (committed=%d staged=%d)"
    committed staged;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  close_out_noerr oc;
  close_in_noerr ic;
  let report = Store.Db.fsck ~repair:true ~dir () in
  checkf report.Store.Db.usable "store usable after kill -9 + fsck --repair";
  let recovered, service = replay_committed ~dir in
  checkf
    (recovered > 0 && recovered < scale)
    "kill -9 was mid-ingest (recovered %d of %d rows)" recovered scale;
  checkf (recovered = committed)
    "recovered rows equal the daemon's last committed count (%d)" committed;
  let expected =
    String.concat ""
      (List.map
         (fun line -> Ctlog.Wire.seal (Monitors.Service.respond service line))
         battery)
    ^ Ctlog.Wire.seal [ "bye" ]
  in
  let stdout_s, stderr_s, status =
    run_daemon ~dir ~extra:[ "--ticks"; "0" ] ~input:(battery @ [ "quit" ]) ()
  in
  checkf (status = Unix.WEXITED 0)
    "daemon restarted after kill -9 exits 0 (stderr: %s)"
    (String.trim stderr_s);
  checkf (stdout_s = expected)
    "restart after kill -9 answers byte-identically to a replay of the \
     committed prefix";
  rm_rf dir;

  (* --- 4. ingest-lag gauge after a commit ------------------------- *)
  (* At a 60% fault rate some polls fall short of the published head,
     so the lag is non-zero at tick 5, one tick after a commit. *)
  let dir = tmp "lag" in
  rm_rf dir;
  let metrics = dir ^ ".prom" in
  let ticks = 5 in
  let stdout_s, _, _ =
    run_daemon
      ~base:(args_with ~fault_rate:"0.6" ~commit_every:2)
      ~dir ~extra:[ "--metrics"; metrics ]
      ~input:(List.init ticks (fun _ -> "tick") @ [ "quit" ])
      ()
  in
  let committed, staged =
    tick_counts (first_line (List.nth (frames_of stdout_s) (ticks - 1)))
  in
  let published = ticks * publish_per_tick * logs in
  let gauge =
    let ic = open_in metrics in
    let rec find () =
      match input_line ic with
      | line when starts_with "unicert_ingest_lag_entries " line ->
          Scanf.sscanf line "unicert_ingest_lag_entries %f" int_of_float
      | _ -> find ()
      | exception End_of_file -> -1
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) find
  in
  checkf
    (committed > 0 && published > staged && gauge = published - staged)
    "ingest lag gauge after a commit reads published - staged \
     (published=%d staged=%d committed=%d gauge=%d)"
    published staged committed gauge;
  rm_rf dir;
  if Sys.file_exists metrics then Sys.remove metrics;

  if !failures > 0 then begin
    Printf.printf "serve_smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "serve_smoke: all checks passed"
