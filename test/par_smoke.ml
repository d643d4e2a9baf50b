(* @par-smoke: end-to-end determinism check for the sharded pipeline,
   attached to @runtest.

   Runs the full analysis twice — sequentially and across 4 worker
   domains — and asserts the multicore contract: the rendered report is
   byte-identical, and with seeded corruption the quarantine sidecar
   folded from the per-shard files is byte-identical too.  Then pins
   every cell of the driver matrix to a recorded digest (below). *)

let scale = 400
let seed = 6
let rate = 0.05

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("par-smoke: FAIL: " ^ m);
      exit 1)
    fmt

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let report t = Format.asprintf "%a" Unicert.Report.all t

(* --- the pinned driver matrix --------------------------------------

   Every (source, corruption, jobs, store mode) cell of the pipeline
   driver, digested: SHA-256 over the rendered report, the quarantine
   sidecar and, for store-backed cells, the decoded stored rows and the
   sealed index files.  The expected digests were recorded before the
   drivers were folded into one; a cell that drifts prints the whole
   recomputed table. *)

let table_scale = 300

let fetch_cfg =
  { Ctlog.Fetch.default_cfg with Ctlog.Fetch.logs = 8; net_seed = Some 41 }

let expected =
  [
    ("generate/clean/jobs=1/none", "e9c91ad3426e8b39fabf1ce7ef14fa923bb09a072ae683d409a2a48a616fa3af");
    ("generate/clean/jobs=1/cold", "4c2093735194aeaa619b6367ea3d287ae8b44eebb2d3233e20303270d30dcf89");
    ("generate/clean/jobs=1/warm", "4c2093735194aeaa619b6367ea3d287ae8b44eebb2d3233e20303270d30dcf89");
    ("generate/clean/jobs=1/incremental", "4c2093735194aeaa619b6367ea3d287ae8b44eebb2d3233e20303270d30dcf89");
    ("generate/clean/jobs=2/none", "e9c91ad3426e8b39fabf1ce7ef14fa923bb09a072ae683d409a2a48a616fa3af");
    ("generate/clean/jobs=2/cold", "4c2093735194aeaa619b6367ea3d287ae8b44eebb2d3233e20303270d30dcf89");
    ("generate/clean/jobs=2/warm", "4c2093735194aeaa619b6367ea3d287ae8b44eebb2d3233e20303270d30dcf89");
    ("generate/clean/jobs=2/incremental", "4c2093735194aeaa619b6367ea3d287ae8b44eebb2d3233e20303270d30dcf89");
    ("generate/corrupt/jobs=1/none", "0dc91ba4b902b2df1431d2e526bea4d941abdf20145483073e3dff86c4073aaf");
    ("generate/corrupt/jobs=1/cold", "51ef2f5fc6ad73d4a919e28f22a2cc376c557730c2819fa09ca132d79b9361ff");
    ("generate/corrupt/jobs=1/warm", "51ef2f5fc6ad73d4a919e28f22a2cc376c557730c2819fa09ca132d79b9361ff");
    ("generate/corrupt/jobs=1/incremental", "51ef2f5fc6ad73d4a919e28f22a2cc376c557730c2819fa09ca132d79b9361ff");
    ("generate/corrupt/jobs=2/none", "0dc91ba4b902b2df1431d2e526bea4d941abdf20145483073e3dff86c4073aaf");
    ("generate/corrupt/jobs=2/cold", "51ef2f5fc6ad73d4a919e28f22a2cc376c557730c2819fa09ca132d79b9361ff");
    ("generate/corrupt/jobs=2/warm", "51ef2f5fc6ad73d4a919e28f22a2cc376c557730c2819fa09ca132d79b9361ff");
    ("generate/corrupt/jobs=2/incremental", "51ef2f5fc6ad73d4a919e28f22a2cc376c557730c2819fa09ca132d79b9361ff");
    ("fetch/clean/jobs=1/none", "9f9b799f737e66fd419d3eddf754873b26ad7a2b56f847c9a3506032475f3019");
    ("fetch/clean/jobs=1/cold", "a1306162e9b74fbd1d1c34d16145acd7cedf55c4b8d28e31ca667e39aa7d5d7b");
    ("fetch/clean/jobs=1/warm", "a1306162e9b74fbd1d1c34d16145acd7cedf55c4b8d28e31ca667e39aa7d5d7b");
    ("fetch/clean/jobs=1/incremental", "a1306162e9b74fbd1d1c34d16145acd7cedf55c4b8d28e31ca667e39aa7d5d7b");
    ("fetch/clean/jobs=2/none", "9f9b799f737e66fd419d3eddf754873b26ad7a2b56f847c9a3506032475f3019");
    ("fetch/clean/jobs=2/cold", "a1306162e9b74fbd1d1c34d16145acd7cedf55c4b8d28e31ca667e39aa7d5d7b");
    ("fetch/clean/jobs=2/warm", "a1306162e9b74fbd1d1c34d16145acd7cedf55c4b8d28e31ca667e39aa7d5d7b");
    ("fetch/clean/jobs=2/incremental", "a1306162e9b74fbd1d1c34d16145acd7cedf55c4b8d28e31ca667e39aa7d5d7b");
    ("fetch/corrupt/jobs=1/none", "51b8197afdbce2b137eb2933791163aaa0d4304b7cd711f2e6e2fb4cd7a26955");
    ("fetch/corrupt/jobs=1/cold", "ef3ca517e69f242f3e40f87ed5b5b8c1fd4a671207754834b33bfc8eaa32dee5");
    ("fetch/corrupt/jobs=1/warm", "ef3ca517e69f242f3e40f87ed5b5b8c1fd4a671207754834b33bfc8eaa32dee5");
    ("fetch/corrupt/jobs=1/incremental", "ef3ca517e69f242f3e40f87ed5b5b8c1fd4a671207754834b33bfc8eaa32dee5");
    ("fetch/corrupt/jobs=2/none", "51b8197afdbce2b137eb2933791163aaa0d4304b7cd711f2e6e2fb4cd7a26955");
    ("fetch/corrupt/jobs=2/cold", "ef3ca517e69f242f3e40f87ed5b5b8c1fd4a671207754834b33bfc8eaa32dee5");
    ("fetch/corrupt/jobs=2/warm", "ef3ca517e69f242f3e40f87ed5b5b8c1fd4a671207754834b33bfc8eaa32dee5");
    ("fetch/corrupt/jobs=2/incremental", "ef3ca517e69f242f3e40f87ed5b5b8c1fd4a671207754834b33bfc8eaa32dee5");
  ]

let tmp name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "unicert-par-smoke-%s-%d" name (Unix.getpid ()))

let store_bytes dir =
  let db = Store.Db.open_ro ~dir in
  let b = Buffer.create 4096 in
  Store.Db.iter_pairs db (fun _ row ->
      Buffer.add_string b row;
      Buffer.add_char b '\n');
  List.iter
    (fun (name, file, _) ->
      Buffer.add_string b name;
      Buffer.add_string b (read_file (Filename.concat dir file)))
    (Store.Db.manifest db).Store.Manifest.indexes;
  Buffer.contents b

(* Rewrite the manifest as if the store had been built without the last
   registered lint, so the next run takes the incremental path. *)
let drop_last_lint dir =
  let db = Store.Db.open_ro ~dir in
  let man = Store.Db.manifest db in
  let lints = String.split_on_char ';' man.Store.Manifest.lints in
  let older = List.filteri (fun i _ -> i < List.length lints - 1) lints in
  Store.Db.commit db { man with Store.Manifest.lints = String.concat ";" older }

let check_cells cells expected msg =
  if cells <> expected then begin
    List.iter
      (fun (label, digest) ->
        let mark =
          match List.assoc_opt label expected with
          | Some d when d = digest -> " "
          | _ -> "!"
        in
        Printf.eprintf "%s    (%S, %S);\n" mark label digest)
      cells;
    fail "%s" msg
  end

let table () =
  let qdir = tmp "q" and sdir = tmp "store" in
  let cells = ref [] in
  List.iter
    (fun (src_name, source) ->
      List.iter
        (fun (corr_name, mutator) ->
          List.iter
            (fun jobs ->
              rm_rf sdir;
              List.iter
                (fun mode ->
                  rm_rf qdir;
                  if mode = "incremental" then drop_last_lint sdir;
                  let policy =
                    { Faults.Policy.default with
                      Faults.Policy.quarantine_dir = Some qdir }
                  in
                  let store = if mode = "none" then None else Some sdir in
                  let t =
                    Unicert.Pipeline.run ~scale:table_scale ~seed ~policy
                      ?mutator ~jobs ~source ?store ()
                  in
                  let sidecar =
                    Filename.concat qdir (Printf.sprintf "quarantine-%d.jsonl" seed)
                  in
                  let q = if Sys.file_exists sidecar then read_file sidecar else "" in
                  let s = if mode = "none" then "" else store_bytes sdir in
                  let label =
                    Printf.sprintf "%s/%s/jobs=%d/%s" src_name corr_name jobs mode
                  in
                  let digest =
                    Ucrypto.Sha256.hex
                      (String.concat "\x00" [ report t; q; s ])
                  in
                  cells := (label, digest) :: !cells)
                [ "none"; "cold"; "warm"; "incremental" ];
              rm_rf sdir)
            [ 1; 2 ])
        [ ("clean", None);
          ("corrupt", Some (Faults.Mutator.plan ~seed ~rate ())) ])
    [ ("generate", Unicert.Pipeline.Generate);
      ("fetch", Unicert.Pipeline.Fetch fetch_cfg) ];
  rm_rf qdir;
  check_cells (List.rev !cells) expected
    "driver matrix drifted from the recorded digests (cells marked !)"

(* --- unicert-lint --corpus ------------------------------------------

   The linter binary keeps its own tally, so its corpus mode is pinned
   separately: stdout, exit code and quarantine JSONL, digested per
   (source, corruption, jobs) cell and identical across jobs. *)

let expected_lint =
  [
    ("lint/generate/clean/jobs=1", "927f7bb6a3f81459b0a50dd5035cddffa315fee3d3a755d8c71a064dc6630454");
    ("lint/generate/clean/jobs=2", "927f7bb6a3f81459b0a50dd5035cddffa315fee3d3a755d8c71a064dc6630454");
    ("lint/generate/corrupt/jobs=1", "5031410f13d94ff9f933cb8b0a5efc5d74ab62bd71075f13cd7697934290016a");
    ("lint/generate/corrupt/jobs=2", "5031410f13d94ff9f933cb8b0a5efc5d74ab62bd71075f13cd7697934290016a");
    ("lint/fetch/clean/jobs=1", "86517d43777b919fc9e526f23b888a078cf099dc871db163d85c79873765d523");
    ("lint/fetch/clean/jobs=2", "86517d43777b919fc9e526f23b888a078cf099dc871db163d85c79873765d523");
    ("lint/fetch/corrupt/jobs=1", "bf4578b4563b1077527fd0523adefd3ca556922b2a137ab4b881ce8f04ca9671");
    ("lint/fetch/corrupt/jobs=2", "bf4578b4563b1077527fd0523adefd3ca556922b2a137ab4b881ce8f04ca9671");
  ]

let lint_table exe =
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let cwd = Sys.getcwd () in
  let work = tmp "lint" in
  if not (Sys.file_exists work) then Unix.mkdir work 0o755;
  Sys.chdir work;
  let run args =
    rm_rf "q";
    let out = Unix.openfile "out" [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let argv =
      Array.of_list
        ([ exe; "--corpus"; "--scale"; string_of_int table_scale; "--seed";
           string_of_int seed; "--no-progress"; "--quarantine"; "q" ]
        @ args)
    in
    let pid = Unix.create_process exe argv Unix.stdin out null in
    Unix.close out;
    Unix.close null;
    let code =
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED c -> c
      | _ -> -1
    in
    let sidecar = Filename.concat "q" (Printf.sprintf "quarantine-%d.jsonl" seed) in
    let q = if Sys.file_exists sidecar then read_file sidecar else "" in
    String.concat "\x00" [ string_of_int code; read_file "out"; q ]
  in
  let cells = ref [] in
  List.iter
    (fun (src_name, src) ->
      List.iter
        (fun (corr_name, corr) ->
          let outs =
            List.map
              (fun jobs ->
                let out = run (src @ corr @ [ "--jobs"; string_of_int jobs ]) in
                let label = Printf.sprintf "lint/%s/%s/jobs=%d" src_name corr_name jobs in
                cells := (label, Ucrypto.Sha256.hex out) :: !cells;
                out)
              [ 1; 2 ]
          in
          if List.hd outs <> List.nth outs 1 then
            fail "unicert-lint --corpus (%s, %s) differs between --jobs 1 and 2"
              src_name corr_name)
        [ ("clean", []); ("corrupt", [ "--corrupt-rate"; string_of_float rate ]) ])
    [ ("generate", []);
      ("fetch", [ "--source"; "fetch"; "--logs"; "8"; "--net-seed"; "41" ]) ];
  rm_rf "q";
  Sys.remove "out";
  Sys.chdir cwd;
  Unix.rmdir work;
  check_cells (List.rev !cells) expected_lint
    "unicert-lint --corpus drifted from the recorded digests (cells marked !)"

let () =
  let sequential = report (Unicert.Pipeline.run ~scale ~seed ~jobs:1 ()) in
  let parallel = report (Unicert.Pipeline.run ~scale ~seed ~jobs:4 ()) in
  if parallel <> sequential then
    fail "report differs between --jobs 1 and --jobs 4";

  let corrupt jobs =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "unicert-par-smoke-%d-%d" jobs (Unix.getpid ()))
    in
    rm_rf dir;
    let policy =
      { Faults.Policy.default with Faults.Policy.quarantine_dir = Some dir }
    in
    let plan = Faults.Mutator.plan ~seed ~rate () in
    let t = Unicert.Pipeline.run ~scale ~seed ~policy ~mutator:plan ~jobs () in
    (match t.Unicert.Pipeline.faults.Unicert.Pipeline.aborted with
    | Some reason -> fail "corrupt run (jobs=%d) aborted: %s" jobs reason
    | None -> ());
    let sidecar =
      Filename.concat dir (Printf.sprintf "quarantine-%d.jsonl" seed)
    in
    let bytes = read_file sidecar in
    rm_rf dir;
    (report t, bytes)
  in
  let seq_report, seq_q = corrupt 1 in
  let par_report, par_q = corrupt 4 in
  if String.length seq_q = 0 then fail "mutator hit nothing at rate %.2f" rate;
  if par_report <> seq_report then
    fail "corrupted report differs between --jobs 1 and --jobs 4";
  if par_q <> seq_q then
    fail "quarantine sidecar differs between --jobs 1 and --jobs 4";
  table ();
  lint_table Sys.argv.(1);
  print_endline "par-smoke: OK"
