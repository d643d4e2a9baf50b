(* @speed-smoke: deterministic allocation gates, attached to @runtest.

   Wall clock on a shared host swings by tens of percent between
   back-to-back runs; minor-heap allocation per certificate does not.
   Each gate runs the same pair of passes its budget was defined over
   (scale 2000, seed 1, jobs 1, so every word lands on this domain),
   counts [Gc.minor_words] per certificate on both sides, and compares
   the ratio against the budget:

   - trace: a traced pass allocates at most 1.05x an untraced one;
   - warm: a warm [~store] replay allocates at least 5x fewer words
     than a storeless full pass;
   - boundary: the pass with the {!Faults.Isolation} error boundaries
     on allocates at most 1.03x the pass with them off;
   - fetch: fetching the corpus at a 10% transport fault rate
     allocates at most 1.5x the clean fetch, and both fetches reach
     complete coverage.

   The cold store pass and the fetch drift by a fraction of a word per
   certificate between runs, so gates compare ratios, never exact
   counts.  Wall-clock views of the same budgets live in perfbench
   ([obs.trace_overhead_pct], [store.replay_rows_per_s],
   [fetch.retries_per_entry]). *)

let scale = 2000
let seed = 1

let failures = ref 0

(* Minor words allocated per certificate by [f ()]. *)
let words_per_cert f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. before) /. float_of_int scale

let pass ?store () =
  let t = Unicert.Pipeline.run ~scale ~seed ~jobs:1 ?store () in
  if t.Unicert.Pipeline.total <> scale then begin
    Printf.printf "speed-smoke: FAIL: pass processed %d of %d certificates\n"
      t.Unicert.Pipeline.total scale;
    exit 1
  end

(* One gate line: the measured [ratio] against its [bound]; [ok]
   carries any side condition the gate also requires. *)
let gate name ~detail ?(ok = true) ratio bound =
  let within, budget =
    match bound with
    | `At_most b -> (ratio <= b, Printf.sprintf "<= %.3fx" b)
    | `At_least b -> (ratio >= b, Printf.sprintf ">= %.3fx" b)
  in
  let within = ok && within in
  Printf.printf "speed-smoke: %-8s ratio %6.3fx (budget %s) %-4s %s\n" name
    ratio budget
    (if within then "ok" else "FAIL")
    detail;
  if not within then incr failures

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let fetch ~fault_rate () =
  let cfg =
    { Ctlog.Fetch.default_cfg with Ctlog.Fetch.net_seed = Some 13; fault_rate }
  in
  let complete = ref true in
  let w =
    words_per_cert (fun () ->
        let _, covs = Ctlog.Fetch.corpus ~scale ~seed cfg in
        complete := List.for_all Ctlog.Fetch.coverage_complete covs)
  in
  (w, !complete)

let () =
  Obs.Progress.set_override (Some false);
  (* Force lazy instrument tables and lint registries outside the
     counted passes. *)
  pass ();
  let plain = words_per_cert pass in

  Obs.Trace.enable ();
  let traced = words_per_cert pass in
  Obs.Trace.disable ();
  gate "trace"
    ~detail:(Printf.sprintf "traced %.1f / untraced %.1f w/cert" traced plain)
    (traced /. plain) (`At_most 1.05);

  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "unicert-speed-smoke-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  pass ~store:dir ();
  let warm = words_per_cert (pass ~store:dir) in
  rm_rf dir;
  gate "warm"
    ~detail:(Printf.sprintf "full %.1f / warm replay %.1f w/cert" plain warm)
    (plain /. warm) (`At_least 5.0);

  Faults.Isolation.set false;
  let unguarded = words_per_cert pass in
  Faults.Isolation.set true;
  gate "boundary"
    ~detail:(Printf.sprintf "on %.1f / off %.1f w/cert" plain unguarded)
    (plain /. unguarded) (`At_most 1.03);

  let clean, clean_complete = fetch ~fault_rate:0.0 () in
  let faulty, faulty_complete = fetch ~fault_rate:0.1 () in
  let coverage = function true -> "complete" | false -> "INCOMPLETE" in
  gate "fetch"
    ~detail:
      (Printf.sprintf "10%% faults %.1f / clean %.1f w/entry, coverage %s/%s"
         faulty clean (coverage faulty_complete) (coverage clean_complete))
    ~ok:(clean_complete && faulty_complete)
    (faulty /. clean) (`At_most 1.5);

  if !failures > 0 then begin
    Printf.printf "speed-smoke: %d gate(s) failed\n" !failures;
    exit 1
  end;
  print_endline "speed-smoke: OK"
