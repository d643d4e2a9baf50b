(* The line bench.exe prints: the metrics a run measured, each with its
   unit.  BENCHMARK.json is the only metric catalog; run.py checks this
   line against it and fills in the per-layer metrics of layers the
   workload never calls. *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float * string) list;  (** name, value, unit *)
}

let print r =
  let field (name, v, unit) =
    if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite");
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map field r.values))
