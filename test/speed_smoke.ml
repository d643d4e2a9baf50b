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
     complete coverage;
   - commit: a {!Monitors.Service.commit} of 512 staged rows onto a
     service already serving 8192 rows allocates at most 1.2x the same
     commit onto an empty service — the commit is O(staged), not
     O(corpus);
   - poll: a {!Ctlog.Fetch.poll} of 64 new entries on a single-log feed
     that has already delivered 4096 allocates at most 1.2x the same
     poll after 64 — the poll is O(page), not O(history);
   - lint: building the fact table ({!Lint.Ctx.of_cert}) costs at most
     1400 words per certificate and running the 95 lints over it
     ({!Lint.Registry.run_ctx}) at most 1000 — absolute budgets, since
     a lint that passes should allocate nothing.

   The cold store pass and the fetch drift by a fraction of a word per
   certificate between runs, so gates compare ratios, never exact
   counts.  Wall-clock views of the same budgets live in perfbench
   ([obs.trace_overhead_pct], [store.replay_rows_per_s],
   [fetch.retries_per_entry], [service.commit_busy_share],
   [fetch.poll_ms]). *)

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

(* Stage synthetic row [id]'s serving material the way the daemon
   does: subject fields for every profile, plus postings in the five
   index families — a few shared keys (issuer, lint, flaw) and
   per-row ones (domain, ulabel). *)
let stage_row service id =
  let host = Printf.sprintf "host%d.example%d.com" id (id mod 97) in
  Monitors.Service.stage_fields service ~id ~cns:[ host ]
    ~sans:[ host; Printf.sprintf "xn--bcher-kva%d.com" id ]
    ~attrs:[ Printf.sprintf "Org %d" (id mod 13) ];
  List.iter
    (fun (index, key) -> Monitors.Service.stage_index service ~index ~key ~id)
    [ ("issuer", Printf.sprintf "CA %d" (id mod 23));
      ("lint", Printf.sprintf "e_lint_%d" (id mod 41));
      ("flaw", Printf.sprintf "flaw %d" (id mod 5));
      ("domain", host);
      ("ulabel", Printf.sprintf "b\xc3\xbccher%d" id) ]

(* Minor words of one commit of [batch] staged rows onto a service
   already serving [served] rows. *)
let commit_words ~served ~batch =
  let service = Monitors.Service.create () in
  for id = 0 to served - 1 do
    stage_row service id
  done;
  Monitors.Service.commit service ~upto:served;
  for id = served to served + batch - 1 do
    stage_row service id
  done;
  let before = Gc.minor_words () in
  Monitors.Service.commit service ~upto:(served + batch);
  Gc.minor_words () -. before

(* Minor words of one poll that delivers 64 new entries on a single-log
   feed which has already delivered [history] entries.  Both sides draw
   from the same corpus, so only the history differs. *)
let poll_words ~history =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "unicert-speed-smoke-poll-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let feed =
    List.hd
      (Ctlog.Fetch.feeds
         ~checkpoint:(Filename.concat dir "cursors")
         ~scale:(4096 + 64) ~seed
         { Ctlog.Fetch.default_cfg with Ctlog.Fetch.logs = 1 })
  in
  Ctlog.Fetch.feed_publish feed history;
  ignore (Ctlog.Fetch.poll feed);
  Ctlog.Fetch.feed_publish feed (history + 64);
  let before = Gc.minor_words () in
  let s = Ctlog.Fetch.poll feed in
  let words = Gc.minor_words () -. before in
  rm_rf dir;
  if List.length s.Ctlog.Fetch.s_raw <> 64 then begin
    Printf.printf "speed-smoke: FAIL: the measured poll delivered %d of 64\n"
      (List.length s.Ctlog.Fetch.s_raw);
    exit 1
  end;
  words

(* Minor words per certificate of the lint layer's two halves, over
   the same certificates the pipeline passes analyze, linted the way
   the engine lints them (no effective-date gating). *)
let lint_words () =
  let entries = Array.init scale (fun i -> Ctlog.Dataset.generate_at ~seed i) in
  let ctx_words = ref 0. and run_words = ref 0. in
  Array.iter
    (fun (e : Ctlog.Dataset.entry) ->
      let w0 = Gc.minor_words () in
      let ctx = Sys.opaque_identity (Lint.Ctx.of_cert e.Ctlog.Dataset.cert) in
      let w1 = Gc.minor_words () in
      ignore
        (Sys.opaque_identity
           (Lint.Registry.run_ctx ~respect_effective_dates:false
              ~issued:e.Ctlog.Dataset.issued ctx));
      let w2 = Gc.minor_words () in
      ctx_words := !ctx_words +. (w1 -. w0);
      run_words := !run_words +. (w2 -. w1))
    entries;
  (!ctx_words /. float_of_int scale, !run_words /. float_of_int scale)

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

  let onto_empty = commit_words ~served:0 ~batch:512 in
  let onto_full = commit_words ~served:8192 ~batch:512 in
  gate "commit"
    ~detail:
      (Printf.sprintf "512 rows onto 8192 %.0f / onto empty %.0f words"
         onto_full onto_empty)
    (onto_full /. onto_empty) (`At_most 1.2);

  let after_page = poll_words ~history:64 in
  let after_history = poll_words ~history:4096 in
  gate "poll"
    ~detail:
      (Printf.sprintf "64 entries after 4096 %.0f / after 64 %.0f words"
         after_history after_page)
    (after_history /. after_page) (`At_most 1.2);

  let ctx_words, run_words = lint_words () in
  let ctx_budget = 1400. and run_budget = 1000. in
  let within = ctx_words <= ctx_budget && run_words <= run_budget in
  Printf.printf
    "speed-smoke: %-8s ctx %.1f w/cert (budget <= %.0f), run %.1f w/cert \
     (budget <= %.0f) %s\n"
    "lint" ctx_words ctx_budget run_words run_budget
    (if within then "ok" else "FAIL");
  if not within then incr failures;

  if !failures > 0 then begin
    Printf.printf "speed-smoke: %d gate(s) failed\n" !failures;
    exit 1
  end;
  print_endline "speed-smoke: OK"
