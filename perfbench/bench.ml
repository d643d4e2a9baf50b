(* The Unicert benchmark: one command, three workloads.

     bench.exe --workload analyze|ingest|fuzz --seed N --seconds S --trace 0|1

   Prints progress on stderr and, as the last stdout line, one JSON
   object with the keys correct, attempted, failed and metrics (the
   end-to-end metrics untraced, the per-layer metrics traced).  Exits 1
   when an output check fails.  See perfbench/README.md. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME analyze|ingest|fuzz");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "analyze" -> W_analyze.run
    | "ingest" -> W_ingest.run
    | "fuzz" -> W_fuzz.run
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  Obs.Progress.set_override (Some false);
  Util.mkdir_p Util.work_root;
  Printf.printf "host: nproc=%d ocaml=%s workload=%s seed=%d seconds=%g trace=%d\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !workload !seed
    !seconds !trace;
  let r = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  Metrics.print r;
  if not r.Metrics.correct then exit 1
