(* fuzz: the RQ2 differential campaign.

   Fuzz.Campaign.run with the workload seed, a fixed budget and jobs 1,
   repeated until the measured time is spent; every repeat must produce
   the same findings.  After every campaign comes one block of
   [block_execs] single executions (Fuzz.Gen.candidate -> Fuzz.Exec.eval),
   each timed on its own.  Every block runs the same (seed, round,
   index) triples, so each block measures the same work and the blocks
   sample the whole run.  They draw structured operations only: byte
   mutants need a corpus, and a corpus taken from one campaign's
   findings would make their cost differ from seed to seed. *)

let budget = 16_384
let warm_budget = 2048
let block_execs = 2000

let config ~seed ~budget =
  { Fuzz.Campaign.default_config with Fuzz.Campaign.seed; budget; jobs = 1 }

let digest (r : Fuzz.Campaign.t) =
  Util.sha_hex (String.concat "\n" (List.map Fuzz.Findings.to_json r.Fuzz.Campaign.findings))

(* Completed with the full budget and no degraded model. *)
let complete (r : Fuzz.Campaign.t) =
  r.Fuzz.Campaign.status = Fuzz.Campaign.Completed
  && r.Fuzz.Campaign.executions = budget
  && r.Fuzz.Campaign.degraded = []

let round_size = Fuzz.Campaign.default_config.Fuzz.Campaign.round_size

(* Execution [j] through generation and evaluation; [rid] names it in
   the spans. *)
let exec_one ~seed ~rid j =
  let spec =
    Spans.with_ "fuzz.gen" ~rid (fun () ->
        Fuzz.Gen.candidate ~seed ~round:(j / round_size) ~index:(j mod round_size)
          ~corpus:[||])
  in
  let ev = Spans.with_ "fuzz.eval" ~rid (fun () -> Fuzz.Exec.eval spec.Fuzz.Gen.der) in
  ignore (Sys.opaque_identity ev)

(* Seconds per single execution in block [b]. *)
let single_block ~seed b =
  Array.init block_execs (fun j ->
      snd (Util.time (fun () -> exec_one ~seed ~rid:((b * block_execs) + j) j)))

let run ~seed ~seconds ~trace =
  (* Set-up: warm-up campaigns (lazy tables, first-run costs). *)
  let warm_up n =
    snd (Util.repeat_setup n (fun () -> Fuzz.Campaign.run (config ~seed ~budget:warm_budget)))
  in
  let setup_before = warm_up 5 in
  if trace then Spans.enable ();
  let heap = Util.heap_start () in
  let t0 = Util.now () in
  (* Each campaign is reduced to its summary at once, so that what the
     run retains does not grow with the number of campaigns. *)
  let blocks = ref [] and campaigns = ref [] and first = ref None in
  let elapsed () = Util.now () -. t0 in
  while elapsed () < seconds || List.length !campaigns < 2 do
    let r, dt =
      Util.time (fun () ->
          Spans.with_ "fuzz.run" ~rid:(List.length !campaigns) (fun () ->
              Fuzz.Campaign.run (config ~seed ~budget)))
    in
    if !first = None then
      first :=
        Some
          ( r.Fuzz.Campaign.corpus_size,
            r.Fuzz.Campaign.executions,
            List.length r.Fuzz.Campaign.findings );
    campaigns := (digest r, complete r, dt) :: !campaigns;
    blocks := single_block ~seed (List.length !blocks) :: !blocks;
    Util.heap_sample heap
  done;
  let peak_heap_mb = Util.heap_stop heap in
  let setup_s = Util.median_l (setup_before @ warm_up 4) in
  let nblocks = List.length !blocks in
  let lat = Array.concat !blocks in
  Spans.disable ();
  let runs = Array.of_list (List.rev !campaigns) in
  let corpus_size, executions, findings = Option.get !first in
  let digest0, _, _ = runs.(0) in
  let same = Array.for_all (fun (d, _, _) -> d = digest0) runs in
  if not same then Util.log "fuzz: findings differ between runs of the same seed and budget";
  let complete = Array.for_all (fun (_, c, _) -> c) runs in
  Util.log "fuzz: %d campaigns of %d executions, %d findings, digest %s"
    (Array.length runs) budget findings (String.sub digest0 0 16);
  let values =
    if not trace then
      [ ("setup_s", setup_s, "s");
        ("peak_heap_mb", peak_heap_mb, "MB");
        ("throughput_per_s",
         float_of_int (budget * Array.length runs)
         /. Util.sum (Array.map (fun (_, _, dt) -> dt) runs),
         "1/s");
        ("latency_p50_ms", 1e3 *. Util.median lat, "ms");
        ("latency_p99_ms", 1e3 *. Util.p99 lat, "ms") ]
    else begin
      let spans = Spans.all () in
      Spans.write (Filename.concat Util.work_root "spans-fuzz.jsonl") spans;
      let sum = Spans.summarize spans in
      [ ("fuzz.gen_us", 1e6 *. Util.median (sum "fuzz.gen").Spans.durs, "us");
        ("fuzz.eval_us", 1e6 *. Util.median (sum "fuzz.eval").Spans.durs, "us");
        ("fuzz.novel_ratio", float_of_int corpus_size /. float_of_int executions,
         "ratio");
        ("fuzz.findings", float_of_int findings, "count");
        ("host.nproc", float_of_int (Domain.recommended_domain_count ()), "count") ]
    end
  in
  {
    Metrics.correct = same && complete;
    attempted = (Array.length runs * budget) + (nblocks * block_execs);
    failed = (if complete then 0 else 1);
    values;
  }
