(* analyze: the measurement-study hot path over a frozen DER corpus.

   Set-up generates [size] certificates at the calibrated issuer/flaw
   mix from the seed and keeps only their DER in memory, so synthetic
   generation stays out of the timed phase.  The timed phase is a
   closed loop on one domain: parse -> entry_of_cert -> analyze_entry
   -> encode_row, one certificate after another, pass after pass. *)

let size = 10_000

let gen_corpus ~seed =
  Array.init size (fun i ->
      (Ctlog.Dataset.generate_at ~seed i).Ctlog.Dataset.cert
        .X509.Certificate.der)

(* One certificate through the end-to-end path; [None] on a failure. *)
let analyze_one ders i =
  match X509.Certificate.parse ders.(i) with
  | Error _ -> None
  | Ok cert -> (
      match Ctlog.Dataset.entry_of_cert cert with
      | Error _ -> None
      | Ok entry ->
          Some (Unicert.Pipeline.encode_row
                  (Unicert.Pipeline.analyze_entry entry ~index:i)))

(* The same path with a span around each call into a layer. *)
let analyze_one_spanned ders i =
  let sp = Spans.with_ in
  match sp "x509.parse" ~rid:i (fun () -> X509.Certificate.parse ders.(i)) with
  | Error _ -> None
  | Ok cert -> (
      match
        sp "dataset.entry_of_cert" ~rid:i (fun () ->
            Ctlog.Dataset.entry_of_cert cert)
      with
      | Error _ -> None
      | Ok entry ->
          let row =
            sp "pipeline.analyze_entry" ~rid:i (fun () ->
                Unicert.Pipeline.analyze_entry entry ~index:i)
          in
          Some
            (sp "pipeline.encode_row" ~rid:i (fun () ->
                 Unicert.Pipeline.encode_row row)))

(* One pass over the corpus.  Rows are kept only when asked for (the
   checked pass); other passes fold them into a hash, so that a pass
   retains nothing. *)
type pass = {
  wall : float;
  lat : float array;
  rows : string array;
  hash : int;
  failed : int;
}

let pass ?(one = analyze_one) ?(keep = false) ders =
  let n = Array.length ders in
  let lat = Array.make n 0. and rows = Array.make (if keep then n else 0) "" in
  let failed = ref 0 and hash = ref 0 in
  let t_start = Util.now () in
  for i = 0 to n - 1 do
    let t0 = Util.now () in
    (match one ders i with
    | Some r ->
        hash := (!hash * 31) + Hashtbl.hash r;
        if keep then rows.(i) <- r
    | None -> incr failed);
    lat.(i) <- Util.now () -. t0
  done;
  { wall = Util.now () -. t_start; lat; rows; hash = !hash; failed = !failed }

(* The rows the batch driver (Pipeline.run ~store) writes for the same
   seed and size.  The loop rebuilds each entry from its DER with
   entry_of_cert, as the CT-fetch path does, so the oracle is the batch
   driver over the fetch source.  The traced run also compares the
   generate source and reports the rows it changes. *)
let batch_rows ~seed ~source =
  let dir = Util.fresh_dir "analyze-batch" in
  let t = Unicert.Pipeline.run ~scale:size ~seed ~source ~store:dir () in
  let rows = Array.make size "" in
  let db = Store.Db.open_ro ~dir in
  Store.Db.iter_pairs db (fun r row -> rows.(Store.Db.index_of_record r) <- row);
  Util.rm_rf dir;
  (t.Unicert.Pipeline.total, rows)

let fetch_source = Unicert.Pipeline.Fetch Ctlog.Fetch.default_cfg

let diff_rows ~label rows expected =
  let bad = ref 0 in
  Array.iteri
    (fun i r ->
      if r <> expected.(i) then begin
        if !bad < 3 then
          Util.log "analyze: row %d\n  loop:  %S\n  %s: %S" i r label expected.(i);
        incr bad
      end)
    rows;
  !bad

let check_rows ~seed rows =
  let total, expected = batch_rows ~seed ~source:fetch_source in
  let bad = diff_rows ~label:"batch" rows expected in
  if total <> size || bad > 0 then begin
    Util.log "analyze: %d of %d rows differ from the batch driver (total %d)"
      bad size total;
    false
  end
  else true

(* --- traced run ------------------------------------------------------- *)

(* Each layer probed on its own, certificate by certificate, under one
   root span per certificate.  ctx, lint and classify are the stages
   analyze_entry fuses; calling them separately gives each its own
   time and allocation. *)
let probe_pass ders =
  let sp = Spans.with_ in
  let findings = ref 0 in
  Array.iteri
    (fun i der ->
      sp "cert" ~rid:i (fun () ->
          match sp "x509.parse" ~rid:i (fun () -> X509.Certificate.parse der) with
          | Error _ -> ()
          | Ok cert -> (
              match
                sp "dataset.entry_of_cert" ~rid:i (fun () ->
                    Ctlog.Dataset.entry_of_cert cert)
              with
              | Error _ -> ()
              | Ok entry ->
                  let ctx = sp "lint.ctx" ~rid:i (fun () -> Lint.Ctx.of_cert cert) in
                  let fs =
                    sp "lint.run" ~rid:i (fun () ->
                        Lint.Registry.run_ctx ~respect_effective_dates:false
                          ~issued:entry.Ctlog.Dataset.issued ctx)
                  in
                  findings :=
                    !findings + List.length (List.filter Lint.is_noncompliant fs);
                  ignore
                    (sp "classify" ~rid:i (fun () ->
                         Unicert.Classify.unicode_fields_of_ctx ctx));
                  let row =
                    sp "pipeline.analyze_entry" ~rid:i (fun () ->
                        Unicert.Pipeline.analyze_entry entry ~index:i)
                  in
                  ignore
                    (sp "pipeline.encode_row" ~rid:i (fun () ->
                         Unicert.Pipeline.encode_row row)))))
    ders;
  !findings

let probe_names =
  [ "x509.parse"; "dataset.entry_of_cert"; "lint.ctx"; "lint.run"; "classify";
    "pipeline.analyze_entry"; "pipeline.encode_row" ]

(* Per-certificate words of every probed layer, in request order. *)
let words_by_cert spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Spans.span) ->
      if s.Spans.name <> "cert" then
        Hashtbl.replace tbl (s.Spans.name, s.Spans.rid) s.Spans.words)
    spans;
  List.map
    (fun name ->
      (name, Array.init size (fun i -> Hashtbl.find_opt tbl (name, i))))
    probe_names

let shard_wall ders ~jobs =
  snd
    (Util.time (fun () ->
         Par.map_shards ~jobs ~scale:(Array.length ders) (fun ~shard:_ ~lo ~hi ->
             for i = lo to hi - 1 do
               ignore (Sys.opaque_identity (analyze_one ders i))
             done)))

(* Paired, interleaved: which arm runs first alternates per pair. *)
let paired k a b =
  List.init k (fun j ->
      let ta, tb =
        if j mod 2 = 0 then
          let ta = a () in
          (ta, b ())
        else
          let tb = b () in
          (a (), tb)
      in
      (ta, tb))

let overhead_pct pairs =
  Array.of_list
    (List.map (fun (off, on) -> 100. *. (on -. off) /. off) pairs)

let traced ders =
  let values = ref [] in
  let add k unit v = values := (k, v, unit) :: !values in
  ignore (pass ders);
  (* Two identical probe passes: time from the first, and the
     allocation counts of both must agree exactly. *)
  Spans.enable ();
  let findings = probe_pass ders in
  let spans_a = Spans.all () in
  Spans.write (Filename.concat Util.work_root "spans-analyze.jsonl") spans_a;
  Spans.reset ();
  ignore (probe_pass ders);
  let spans_b = Spans.all () in
  Spans.disable ();
  let wa = words_by_cert spans_a and wb = words_by_cert spans_b in
  let alloc_exact =
    List.for_all2 (fun (_, a) (_, b) -> a = b) wa wb
  in
  if not alloc_exact then
    List.iter2
      (fun (name, a) (_, b) ->
        if a <> b then Util.log "analyze: %s words differ between two traced passes" name)
      wa wb;
  let sum = Spans.summarize spans_a in
  let us name = 1e6 *. Util.median (sum name).Spans.durs in
  let words name = Util.median (sum name).Spans.words in
  add "x509.parse_us" "us" (us "x509.parse");
  add "x509.parse_words" "words" (words "x509.parse");
  add "dataset.entry_of_cert_us" "us" (us "dataset.entry_of_cert");
  add "dataset.entry_of_cert_words" "words" (words "dataset.entry_of_cert");
  add "lint.ctx_us" "us" (us "lint.ctx");
  add "lint.ctx_words" "words" (words "lint.ctx");
  add "lint.run_us" "us" (us "lint.run");
  add "lint.run_words" "words" (words "lint.run");
  add "lint.findings_per_cert" "count" (float_of_int findings /. float_of_int size);
  add "classify.us" "us" (us "classify");
  add "classify.words" "words" (words "classify");
  add "pipeline.analyze_entry_us" "us" (us "pipeline.analyze_entry");
  add "pipeline.analyze_entry_words" "words" (words "pipeline.analyze_entry");
  add "pipeline.encode_row_us" "us" (us "pipeline.encode_row");
  (* Benchmark-span overhead: the e2e loop with and without spans. *)
  let span_pairs =
    paired 4
      (fun () -> (pass ders).wall)
      (fun () ->
        Spans.enable ();
        let w = (pass ~one:analyze_one_spanned ders).wall in
        Spans.disable ();
        Spans.reset ();
        w)
  in
  add "bench.span_overhead_pct" "%" (Util.median (overhead_pct span_pairs));
  (* jobs=2 row: both arms warmed outside the clock. *)
  ignore (shard_wall ders ~jobs:1);
  ignore (shard_wall ders ~jobs:2);
  let par = paired 4 (fun () -> shard_wall ders ~jobs:1) (fun () -> shard_wall ders ~jobs:2) in
  let t1 = Util.median_l (List.map fst par) and t2 = Util.median_l (List.map snd par) in
  add "par.jobs2_speedup" "x" (t1 /. t2);
  (* The program's own tracing (Obs.Trace) against its 5% budget. *)
  let trace_pairs =
    paired 8
      (fun () -> (pass ders).wall)
      (fun () ->
        Obs.Trace.enable ();
        let w = (pass ders).wall in
        Obs.Trace.disable ();
        w)
  in
  let ov = Util.sorted (overhead_pct trace_pairs) in
  Util.log
    "analyze: Obs.Trace overhead median %.2f%% (quartiles %.2f%% .. %.2f%%, %d pairs; budget 5%%)"
    (Util.quantile_sorted ov 0.5) (Util.quantile_sorted ov 0.25)
    (Util.quantile_sorted ov 0.75) (Array.length ov);
  add "obs.trace_overhead_pct" "%" (Util.quantile_sorted ov 0.5);
  add "host.nproc" "count" (float_of_int (Domain.recommended_domain_count ()));
  (alloc_exact, !values)

let run ~seed ~seconds ~trace =
  let ders, setup_before = Util.repeat_setup 5 (fun () -> gen_corpus ~seed) in
  if trace then begin
    let alloc_exact, values = traced ders in
    let p = pass ~keep:true ders in
    let ok = alloc_exact && p.failed = 0 && check_rows ~seed p.rows in
    (* The generate source takes is_idn from the generator rather than
       from the bytes, and a program defect makes a few of its rows
       differ from the fetch source's.  The count is a metric, so that
       the defect stays visible until it is fixed. *)
    let _, generated = batch_rows ~seed ~source:Unicert.Pipeline.Generate in
    let diffs = diff_rows ~label:"generate" p.rows generated in
    Util.log "analyze: %d of %d rows differ between the fetch and generate sources"
      diffs size;
    let values =
      ("pipeline.generate_fetch_row_diffs", float_of_int diffs, "count") :: values
    in
    { Metrics.correct = ok; attempted = size; failed = p.failed; values }
  end
  else begin
    (* Warm-up outside the clock (lazy tables, allocator); its rows are
       the checked ones, and every later pass must hash the same. *)
    let hash, first_ok =
      let first = pass ~keep:true ders in
      (first.hash, first.failed = 0 && check_rows ~seed first.rows)
    in
    let heap = Util.heap_start () in
    let passes = ref [] and elapsed = ref 0. and rows_ok = ref first_ok in
    while !elapsed < seconds || !passes = [] do
      let p = pass ders in
      elapsed := !elapsed +. p.wall;
      if p.hash <> hash then rows_ok := false;
      Util.heap_sample heap;
      passes := p :: !passes
    done;
    let peak_heap_mb = Util.heap_stop heap in
    let _, setup_after = Util.repeat_setup 4 (fun () -> gen_corpus ~seed) in
    let setup_s = Util.median_l (setup_before @ setup_after) in
    let passes = Array.of_list !passes in
    let attempted = size * Array.length passes in
    let failed = Array.fold_left (fun a p -> a + p.failed) 0 passes in
    let lat = Util.sorted (Array.concat (List.map (fun p -> p.lat) (Array.to_list passes))) in
    let values =
      [ ("setup_s", setup_s, "s");
        ("throughput_per_s",
         float_of_int attempted /. Util.sum (Array.map (fun p -> p.wall) passes),
         "1/s");
        ("latency_p50_ms", 1e3 *. Util.quantile_sorted lat 0.5, "ms");
        ("latency_p99_ms", 1e3 *. Util.quantile_sorted lat 0.99, "ms");
        ("peak_heap_mb", peak_heap_mb, "MB") ]
    in
    let rates = Util.sorted (Array.map (fun p -> float_of_int size /. p.wall) passes) in
    Util.log "analyze: %d passes of %d certificates, certs/s min %.0f median %.0f max %.0f"
      (Array.length passes) size rates.(0) (Util.median rates)
      rates.(Array.length rates - 1);
    { Metrics.correct = !rows_ok && failed = 0; attempted; failed; values }
  end
