(* The benchmark program: `gen` writes a workload's inputs and reference
   answers for a seed; `run` measures the program over them and prints one
   JSON result line. The two are separate processes so that the generator's
   records and the reference computations stay out of the measured heap and
   out of every timed interval (perfbench/run.py drives both). *)

let workloads = [ "spam_session"; "tpch_adaptive"; "server_ingest" ]

(* Every per-layer metric, in BENCHMARK.json order; a workload that does not
   reach a layer reports 0 for it. *)
let per_layer =
  [
    ("optimizer.plan_ms", "ms"); ("engine.stage_ms", "ms"); ("engine.exec_ms", "ms");
    ("engine.scan_ms", "ms"); ("engine.build_ms", "ms"); ("engine.probe_ms", "ms");
    ("engine.merge_ms", "ms"); ("engine.batches", "count"); ("engine.lanes_batch", "count");
    ("engine.lanes_tuple", "count"); ("engine.batch_density", "ratio");
    ("plugin.index_build_ms", "ms"); ("plugin.rows_scanned", "count");
    ("plugin.slot_reads", "count"); ("cache.fill_ms", "ms"); ("cache.fill_rows", "count");
    ("cache.warm_fills", "count"); ("cache.field_hit_ratio", "ratio");
    ("cache.promotions", "count"); ("cache.sorted_projections", "count");
    ("cache.zone_maps", "count"); ("storage.zone_checks", "count");
    ("storage.morsels_skipped", "count"); ("storage.sorted_seeks", "count");
    ("storage.probe_morsels_skipped", "count"); ("storage.shards_pruned", "count");
    ("storage.skip_ratio", "ratio"); ("server.queue_wait_ms", "ms");
    ("server.compile_ms", "ms"); ("server.run_ms", "ms"); ("server.protocol_ms", "ms");
    ("server.engine_cache_hit_ratio", "ratio");
    ("server.engine_cache_invalidations", "count"); ("proteus.append_ms", "ms");
    ("gc.alloc_mb", "MiB"); ("gc.major_collections", "count");
    ("trace.overhead_setup_s", "s"); ("trace.overhead_cold_pass_s", "s");
    ("trace.overhead_warm_pass_s", "s"); ("trace.overhead_query_p50_ms", "ms");
    ("trace.overhead_query_p90_ms", "ms");
  ]

let overhead_of = [ "setup_s"; "cold_pass_s"; "warm_pass_s"; "query_p50_ms"; "query_p90_ms" ]

let value name metrics =
  match List.find_opt (fun (n, _, _) -> n = name) metrics with
  | Some (_, v, _) -> v
  | None -> 0.

let print_result ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " fields)

(* A measured run: [measure tracer seconds] returns (attempted, failed,
   end-to-end metrics, per-layer metrics). *)
let measurer workload ~seed ~dir =
  match workload with
  | "spam_session" | "tpch_adaptive" ->
    let spec =
      if workload = "spam_session" then Spam.spec ~seed ~dir else Tpch_adaptive.spec ~seed ~dir
    in
    fun tr seconds ->
      let tally = { Passes.attempted = 0; failed = 0 } in
      let sessions = Passes.run_sessions tr tally spec ~seconds in
      ( tally.attempted,
        tally.failed,
        Passes.e2e (List.map Passes.summary sessions),
        if tr = None then [] else Passes.layers sessions )
  | _ -> Server_ingest.measure ~seed ~dir

let run ~workload ~seed ~dir ~seconds ~trace ~trace_out =
  let measure = measurer workload ~seed ~dir in
  if not trace then begin
    let attempted, failed, e2e, _ = measure None seconds in
    print_result ~attempted ~failed e2e
  end
  else begin
    (* half the run untraced, half traced: the difference of the two is
       the tracing overhead *)
    let a1, f1, plain, _ = measure None (seconds /. 2.) in
    let tr = Trace.create () in
    let a2, f2, traced, layers = measure (Some tr) (seconds /. 2.) in
    Trace.write tr trace_out;
    Printf.printf "per-layer self times (%s, traced half):\n" workload;
    Trace.print_self_times stdout tr;
    let overhead =
      List.map
        (fun m -> ("trace.overhead_" ^ m, value m traced -. value m plain, ""))
        overhead_of
    in
    let metrics =
      List.map (fun (name, unit) -> (name, value name (layers @ overhead), unit)) per_layer
    in
    List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.4f %s\n" n v u) metrics;
    print_result ~attempted:(a1 + a2) ~failed:(f1 + f2) metrics
  end

(* A fixed 20M-iteration integer loop, timed over and over for [seconds]:
   its spread is the host's contention, not the program's. *)
let probe seconds =
  let t_end = Util.now () +. seconds in
  let samples = ref [] in
  while Util.now () < t_end do
    let (_ : int), dt =
      Util.timed (fun () ->
          let acc = ref 0 in
          for i = 1 to 20_000_000 do
            acc := Sys.opaque_identity (!acc + (i land 7))
          done;
          !acc)
    in
    samples := (1000. *. dt) :: !samples
  done;
  let q p = Util.quantile p !samples in
  Printf.printf "fixed loop, %d samples over %.0f s: min %.1f  p10 %.1f  median %.1f  p90 %.1f  max %.1f ms\n"
    (List.length !samples) seconds (q 0.) (q 0.1) (q 0.5) (q 0.9) (q 1.)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and dir = ref "" and seconds = ref 10.
  and trace = ref 0 and trace_out = ref "trace.jsonl" in
  Arg.parse_argv ~current:(ref 1) Sys.argv
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--dir", Arg.Set_string dir, " input directory");
      ("--seconds", Arg.Set_float seconds, " run length");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--trace-out", Arg.Set_string trace_out, " where spans are written");
    ]
    (fun _ -> ())
    "main.exe (gen|run) --workload W --seed N --dir D [--seconds S --trace 0|1] | probe --seconds S";
  if cmd = "probe" then (probe !seconds; exit 0);
  if not (List.mem !workload workloads) || !dir = "" then begin
    prerr_endline "main.exe: --workload must name a workload and --dir is required";
    exit 2
  end;
  match cmd with
  | "gen" -> (
    match !workload with
    | "spam_session" -> Spam.gen ~seed:!seed ~dir:!dir
    | "tpch_adaptive" -> Tpch_adaptive.gen ~seed:!seed ~dir:!dir
    | _ -> Server_ingest.gen ~seed:!seed ~dir:!dir)
  | "run" ->
    run ~workload:!workload ~seed:!seed ~dir:!dir ~seconds:!seconds ~trace:(!trace = 1)
      ~trace_out:!trace_out
  | _ ->
    prerr_endline "main.exe: the first argument is gen or run";
    exit 2
