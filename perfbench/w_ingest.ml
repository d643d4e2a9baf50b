(* ingest: the daemon's ingest loop with no queries.

   16 simulated logs (Ctlog.Fetch.feeds) publish [per_log] entries
   each per tick over a transport with a seeded transient fault rate;
   every delivered entry is analysed and staged, and every
   [commit_every] ticks a commit lands it.  [per_log] and
   [commit_every] are the defaults of bin/unicert_monitord.ml
   (--publish-per-tick, --commit-every); the fault rate is in
   Daemon.cfg.  One ingest of [size] entries is one sample; samples
   repeat until the measured time is spent.  Per-entry cost grows with
   the corpus, so the sample size is fixed. *)

let size = 8192
let per_log = 64
let commit_every = 4

let setup ~seed =
  let dir = Util.fresh_dir "ingest" in
  (dir, Daemon.create ~dir ~scale:size ~seed)

(* Tick until every log has delivered its whole range, committing on
   schedule, then land the tail. *)
let ingest ?(after_commit = fun () -> ()) (t : Daemon.t) =
  let staged_all () =
    List.for_all (fun (fs : Daemon.feed_state) -> fs.Daemon.next >= fs.Daemon.hi)
      t.Daemon.states
  in
  let limit = 20 * size / (16 * per_log) in
  while not (staged_all ()) && t.Daemon.ticks < limit do
    Daemon.tick t ~per_log;
    if t.Daemon.ticks mod commit_every = 0 then begin
      Daemon.commit t;
      after_commit ()
    end
  done;
  if t.Daemon.staged > 0 then begin
    Daemon.commit t;
    after_commit ()
  end

let rows_of_db db =
  let rows = ref [] in
  Store.Db.iter_pairs db (fun _ rowstr ->
      match Unicert.Pipeline.decode_row rowstr with
      | Ok r -> rows := r :: !rows
      | Error _ -> ());
  List.rev !rows

let queries ~seed (t : Daemon.t) = Mix.make ~seed ~n:2000 (rows_of_db t.Daemon.db)

(* Also returns the replay's (rows, read seconds, commit seconds). *)
let check ~seed (t : Daemon.t) =
  let ok_count = t.Daemon.committed = size && Daemon.complete t in
  if not ok_count then
    Util.log "ingest: committed %d of %d entries" t.Daemon.committed size;
  let ok_replay, replay =
    Daemon.check_against_replay t (Mix.battery (queries ~seed t) 150)
  in
  (ok_count && t.Daemon.undecodable = 0 && ok_replay, replay)

(* The read path over the ingested corpus: the query mix through the
   framed listener, one query after another, under spans.  Returns the
   hit counts and the number of failed replies. *)
let read_pass ~seed (t : Daemon.t) =
  let seq = ref 0 in
  let listener =
    Net.Listener.create ~seal:Ctlog.Wire.seal (fun ~client:_ line ->
        Spans.with_ ("service.respond_" ^ Mix.bucket_of line) ~rid:!seq
          (fun () -> Monitors.Service.respond t.Daemon.service line))
  in
  Array.fold_left
    (fun (hits, bad) line ->
      incr seq;
      let frame =
        Spans.with_ "listener.serve" ~rid:!seq (fun () ->
            Net.Listener.serve listener ~client:"bench" ~seq:!seq line)
      in
      match Mix.hits_of_frame frame with
      | Some h -> (float_of_int h :: hits, bad)
      | None -> (hits, bad + 1))
    ([], 0) (queries ~seed t)

type sample = { wall : float; setup_s : float; lags : float array }

(* One sample; with [heap], the heap size is also sampled after every
   commit. *)
let one ?heap ~seed ~keep () =
  (* Start from a collected heap, so that the garbage of the sample
     before is not collected on this one's clock. *)
  Gc.full_major ();
  let (dir, t), setup_s = Util.time (fun () -> setup ~seed) in
  let after_commit () = Option.iter Util.heap_sample heap in
  let (), wall = Util.time (fun () -> ingest t ~after_commit) in
  let s = { wall; setup_s; lags = Util.Fbuf.to_array t.Daemon.lags } in
  if keep then (s, Some (dir, t))
  else begin
    let ok = t.Daemon.committed = size && t.Daemon.undecodable = 0 in
    Util.rm_rf dir;
    if ok then (s, None) else failwith "ingest: incomplete sample"
  end

let traced ~seed =
  let dir, t = setup ~seed in
  let idx_bytes = Util.Fbuf.create () in
  Spans.enable ();
  let (), wall =
    Util.time (fun () ->
        ingest t ~after_commit:(fun () ->
            Util.Fbuf.add idx_bytes
              (float_of_int
                 (Util.dir_bytes ~filter:(fun f -> Filename.check_suffix f ".idx") dir))))
  in
  let hits, bad = read_pass ~seed t in
  Spans.disable ();
  let ok, (rows, read_s, commit_s) = check ~seed t in
  let spans = Spans.all () in
  Spans.write (Filename.concat Util.work_root "spans-ingest.jsonl") spans;
  let sum = Spans.summarize spans in
  let med_ms name = 1e3 *. Util.median (sum name).Spans.durs in
  let med_us name = 1e6 *. Util.median (sum name).Spans.durs in
  let self names = List.fold_left (fun a n -> a +. (sum n).Spans.self_total) 0. names in
  let last_ms name = 1e3 *. Spans.last_dur spans name in
  let seg_bytes =
    Util.dir_bytes
      ~filter:(fun f ->
        Filename.check_suffix f ".seg"
        && (String.starts_with ~prefix:"certs-" f || String.starts_with ~prefix:"rows-" f))
      dir
  in
  let n = float_of_int size in
  let respond =
    List.concat_map
      (fun p ->
        let d = (sum ("service.respond_" ^ p)).Spans.durs in
        [ (Printf.sprintf "service.respond_%s_p50_us" p, 1e6 *. Util.median d, "us");
          (Printf.sprintf "service.respond_%s_p99_us" p, 1e6 *. Util.p99 d, "us") ])
      Mix.buckets
  in
  let values =
    respond
    @ [ ("service.hits_per_query", Util.mean (Array.of_list hits), "count");
        ("listener.serve_us", 1e6 *. Util.median (sum "listener.serve").Spans.selfs, "us");
        ("store.replay_rows_per_s", float_of_int rows /. read_s, "1/s");
        ("service.replay_commit_s", commit_s, "s");
        ("fetch.poll_ms", med_ms "fetch.poll", "ms");
        ("fetch.busy_share",
         self [ "fetch.publish"; "fetch.poll"; "fetch.items_of_session" ] /. wall,
         "ratio");
        ("fetch.entries_per_poll", n /. float_of_int t.Daemon.polls, "count");
        ("fetch.retries_per_entry", float_of_int (Daemon.retries t) /. n, "ratio");
        ("pipeline.analyze_entry_us", med_us "pipeline.analyze_entry", "us");
        ("store.append_us", med_us "store.append", "us");
        ("store.bytes_per_entry", float_of_int seg_bytes /. n, "bytes");
        ("store.commit_ms", med_ms "store.commit", "ms");
        ("index.save_ms", med_ms "index.save", "ms");
        ("index.save_ms_last", last_ms "index.save", "ms");
        ("index.bytes_per_commit", Util.mean (Util.Fbuf.to_array idx_bytes), "bytes");
        ("index.busy_share",
         self [ "index.add"; "index.merge"; "index.save" ] /. wall, "ratio");
        ("service.stage_us", med_us "service.stage", "us");
        ("service.commit_ms", med_ms "service.commit", "ms");
        ("service.commit_ms_last", last_ms "service.commit", "ms");
        ("service.commit_busy_share", self [ "service.commit" ] /. wall, "ratio");
        ("service.backlog_entries_max", float_of_int t.Daemon.backlog_max, "count");
        ("commit.total_ms", med_ms "commit", "ms");
        ("host.nproc", float_of_int (Domain.recommended_domain_count ()), "count") ]
  in
  Util.rm_rf dir;
  {
    Metrics.correct = ok && bad = 0;
    attempted = size + List.length hits + bad;
    failed = t.Daemon.undecodable + bad;
    values;
  }

let run ~seed ~seconds ~trace =
  if trace then traced ~seed
  else begin
    (* The first sample is kept for the output check, made outside
       the clock and the heap watch. *)
    let first, ok =
      let first, kept = one ~seed ~keep:true () in
      let dir, t = Option.get kept in
      let ok, _ = check ~seed t in
      Util.rm_rf dir;
      (first, ok)
    in
    let heap = Util.heap_start () in
    let samples = ref [ first ] and elapsed = ref first.wall in
    while !elapsed < seconds || List.length !samples < 3 do
      let s, _ = one ~seed ~keep:false ~heap () in
      elapsed := !elapsed +. s.wall;
      samples := s :: !samples
    done;
    let peak_heap_mb = Util.heap_stop heap in
    let samples = Array.of_list !samples in
    Util.log "ingest: %d samples of %d entries" (Array.length samples) size;
    let lags = Util.sorted (Array.concat (List.map (fun s -> s.lags) (Array.to_list samples))) in
    let values =
      [ ("setup_s", Util.median (Array.map (fun s -> s.setup_s) samples), "s");
        ("throughput_per_s",
         float_of_int (size * Array.length samples)
         /. Util.sum (Array.map (fun s -> s.wall) samples),
         "1/s");
        ("latency_p50_ms", 1e3 *. Util.quantile_sorted lags 0.5, "ms");
        ("latency_p99_ms", 1e3 *. Util.quantile_sorted lags 0.99, "ms");
        ("peak_heap_mb", peak_heap_mb, "MB") ]
    in
    {
      Metrics.correct = ok;
      attempted = size * Array.length samples;
      failed = 0;
      values;
    }
  end
