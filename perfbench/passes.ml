(* The query-sequence runner shared by spam_session and tpch_adaptive.

   A run is a series of fresh sessions, started while the run's time lasts.
   Each session reads the binary inputs from disk (untimed), registers
   every input (timed: setup), runs the query
   sequence once over the untouched files (the cold pass), then [settle]
   passes while caches and promotions settle, then [warm] timed passes.
   Every timed interval starts after a full major collection. The cold
   answers are checked against the workload's reference; every later pass
   must return exactly the cold pass's answers. The session loop and the
   end-to-end metrics are shared with server_ingest. *)

module Db = Proteus.Db
module Value = Proteus_model.Value
module Plan = Proteus_algebra.Plan
module Counters = Proteus_engine.Counters
module Manager = Proteus_cache.Manager
module Registry = Proteus_plugin.Registry

type spec = {
  setup : unit -> unit -> Db.t;
      (** [setup ()] reads the binary inputs; the function it returns makes a
          fresh session and registers every input (the timed part) *)
  raw : string list;  (** the raw (CSV/JSON) datasets *)
  queries : (string * Plan.t) list;
  settle : int;
  warm : int;
  check : string -> Value.t -> bool;  (** a cold answer against the reference *)
}

(* What one pass leaves behind. The layer fields are filled only when
   traced. *)
type pass = {
  wall : float;
  lat : float list;  (** seconds per query *)
  answers : (Value.t, exn) result array;
  plan_s : float list;
  stage_s : float list;
  exec_s : float list;
  counters : Counters.snapshot;
  cache : Manager.stats;  (** the cache manager's stats at the end of the pass *)
  alloc : float;  (** bytes *)
  majors : int;
}

type session = {
  setup_s : float;
  index_build_s : float;
  cold : pass;
  warm_passes : pass list;
  cache_before_warm : Manager.stats;
  cache_bytes : int;
  busy_s : float;  (** the wall time of every pass, and of the traced index builds *)
  answered : int;
}

type tally = { mutable attempted : int; mutable failed : int }

(* Every workload runs the serial engine (one domain). On two shared vCPUs
   a second domain makes every pipeline barrier wait for whichever vCPU
   the host took away, so its timings measure the host. *)
let domains = 1

let run_query tr ~req db plan =
  match tr with
  | None -> (Db.run_plan ~domains db plan, 0., 0., 0.)
  | Some _ ->
    Trace.span tr ~req "query" (fun q ->
        let (_ : Plan.t), plan_s =
          Trace.span tr ~parent:q ~req "optimizer" (fun _ ->
              Util.timed (fun () ->
                  Proteus_optimizer.Optimizer.optimize (Db.catalog db) plan))
        in
        let p = Trace.span tr ~parent:q ~req "engine.stage" (fun _ -> Db.prepare_plan ~domains db plan) in
        let v, exec_s = Trace.span tr ~parent:q ~req "engine.exec" (fun _ -> Util.timed p.Db.run) in
        (v, plan_s, p.Db.compile_seconds, exec_s))

let run_pass tr spec db ~pass_no =
  Gc.full_major ();
  Counters.reset ();
  let alloc0 = Util.allocated_bytes () and majors0 = Util.major_collections () in
  let n = List.length spec.queries in
  let answers = Array.make n (Error Not_found) in
  let lat = ref [] and plan_s = ref [] and stage_s = ref [] and exec_s = ref [] in
  let t0 = Util.now () in
  List.iteri
    (fun i (_, plan) ->
      let q0 = Util.now () in
      (match run_query tr ~req:((pass_no * 1000) + i) db plan with
      | v, p, s, e ->
        answers.(i) <- Ok v;
        plan_s := p :: !plan_s;
        stage_s := s :: !stage_s;
        exec_s := e :: !exec_s
      | exception e -> answers.(i) <- Error e);
      lat := (Util.now () -. q0) :: !lat)
    spec.queries;
  let wall = Util.now () -. t0 in
  {
    wall;
    lat = !lat;
    answers;
    plan_s = !plan_s;
    stage_s = !stage_s;
    exec_s = !exec_s;
    counters = Counters.snapshot ();
    cache = Db.cache_stats db;
    alloc = Util.allocated_bytes () -. alloc0;
    majors = Util.major_collections () - majors0;
  }

(* Checks a pass's answers: the cold pass against the reference, later
   passes against the cold pass, bit for bit up to bag order. *)
let tally_pass tally spec ~cold p =
  Array.iteri
    (fun i a ->
      let id = fst (List.nth spec.queries i) in
      tally.attempted <- tally.attempted + 1;
      let ok =
        match a, cold with
        | Error e, _ ->
          Printf.eprintf "%s failed: %s\n%!" id (Printexc.to_string e);
          false
        | Ok v, None -> spec.check id v
        | Ok v, Some c -> (
          match c.answers.(i) with
          | Ok cv -> Value.equal (Util.sort_bag v) (Util.sort_bag cv)
          | Error _ -> false)
      in
      if not ok then begin
        tally.failed <- tally.failed + 1;
        Printf.eprintf "%s: wrong answer (%s)\n%!" id
          (if cold = None then "against the reference" else "differs from the cold pass")
      end)
    p.answers

let run_session tr tally spec ~session_no =
  (* the first collection frees the last session before the inputs are
     read, so that the two do not share the heap's high-water mark *)
  Gc.full_major ();
  let register = spec.setup () in
  Gc.full_major ();
  let db, setup_s = Util.timed register in
  (* first touch of each raw file: structural index build, timed apart
     from the cold pass only when traced *)
  let index_build_s =
    match tr with
    | None -> 0.
    | Some _ ->
      Util.sum
        (List.map
           (fun name ->
             snd
               (Util.timed (fun () ->
                    Trace.span tr ~req:(-1) "plugin.index_build" (fun _ ->
                        ignore (Registry.source (Db.registry db) name)))))
           spec.raw)
  in
  let base = session_no * 100 in
  let cold = run_pass tr spec db ~pass_no:base in
  tally_pass tally spec ~cold:None cold;
  let settled =
    List.init spec.settle (fun k ->
        let p = run_pass tr spec db ~pass_no:(base + 1 + k) in
        tally_pass tally spec ~cold:(Some cold) p;
        p)
  in
  let cache_before_warm = Db.cache_stats db in
  let warm_passes =
    List.init spec.warm (fun k ->
        let p = run_pass tr spec db ~pass_no:(base + spec.settle + 1 + k) in
        tally_pass tally spec ~cold:(Some cold) p;
        p)
  in
  let passes = (cold :: settled) @ warm_passes in
  {
    setup_s;
    index_build_s;
    cold;
    warm_passes;
    cache_before_warm;
    cache_bytes = Manager.resident_bytes (Db.cache_manager db);
    busy_s = index_build_s +. Util.sum (List.map (fun p -> p.wall) passes);
    answered = List.length passes * List.length spec.queries;
  }

(* Fresh sessions [session k] until [seconds] have passed (at least
   [min_sessions]). *)
let repeat ~seconds ~min_sessions session =
  let t0 = Util.now () in
  let rec go acc k =
    if k >= min_sessions && Util.now () -. t0 >= seconds then List.rev acc
    else go (session k :: acc) (k + 1)
  in
  go [] 0

let run_sessions tr tally spec ~seconds =
  repeat ~seconds ~min_sessions:3 (fun k -> run_session tr tally spec ~session_no:k)

(* What the end-to-end metrics need from one session of any workload. *)
type summary = {
  s_setup : float;
  s_cold : float;  (** the cold pass or round *)
  s_warm : float list;  (** the warm passes or rounds *)
  s_lat : float list;  (** per-request seconds in the warm passes or rounds *)
  s_busy : float;  (** every pass or round and append of the session *)
  s_answered : int;  (** the requests those answered *)
  s_cache_bytes : int;
}

(* Every timing is a median over the run's sessions, passes or requests.
   throughput_qps is per session: all its requests over all its pass (or
   round and append) time, cold pass included, so a slower cold pass or a
   costlier refill lowers it while warm_pass_s does not see them. *)
let e2e (sessions : summary list) =
  let lat = List.concat_map (fun s -> s.s_lat) sessions in
  [
    ("setup_s", Util.median (List.map (fun s -> s.s_setup) sessions), "s");
    ("cold_pass_s", Util.median (List.map (fun s -> s.s_cold) sessions), "s");
    ("warm_pass_s", Util.median (List.concat_map (fun s -> s.s_warm) sessions), "s");
    ( "throughput_qps",
      Util.median (List.map (fun s -> float_of_int s.s_answered /. s.s_busy) sessions),
      "1/s" );
    ("query_p50_ms", 1000. *. Util.median lat, "ms");
    ("query_p90_ms", 1000. *. Util.quantile 0.9 lat, "ms");
    ("peak_heap_mb", Util.peak_heap_mb (), "MiB");
    ("cache_mb", Util.median (List.map (fun s -> Util.mib s.s_cache_bytes) sessions), "MiB");
  ]

let summary s =
  {
    s_setup = s.setup_s;
    (* a traced session touches the raw files before its cold pass *)
    s_cold = s.index_build_s +. s.cold.wall;
    s_warm = List.map (fun p -> p.wall) s.warm_passes;
    s_lat = List.concat_map (fun p -> p.lat) s.warm_passes;
    s_busy = s.busy_s;
    s_answered = s.answered;
    s_cache_bytes = s.cache_bytes;
  }

(* Per-layer numbers of a traced run: per-query timings are means over the
   warm passes' queries, per-pass counts and phase times medians over warm
   passes, fill figures from the cold pass. *)
let layers sessions =
  let warm = List.concat_map (fun s -> s.warm_passes) sessions in
  let per_query f =
    let xs = List.concat_map f warm in
    1000. *. Util.sum xs /. float_of_int (List.length xs)
  in
  let per_pass f = Util.median (List.map (fun p -> f p.counters) warm) in
  let ms ns = float_of_int ns /. 1e6 in
  let c f = per_pass (fun s -> float_of_int (f s)) in
  let cold f = Util.median (List.map (fun s -> f s.cold) sessions) in
  let last s = (List.nth s.warm_passes (List.length s.warm_passes - 1)).cache in
  let final f = Util.median (List.map (fun s -> float_of_int (f (last s))) sessions) in
  let warm_cache f =
    (* the warm passes' share of a cumulative cache counter *)
    Util.median
      (List.map
         (fun s ->
           float_of_int (f (last s) - f s.cache_before_warm)
           /. float_of_int (List.length s.warm_passes))
         sessions)
  in
  let hits = warm_cache (fun m -> m.Manager.field_hits)
  and misses = warm_cache (fun m -> m.Manager.field_misses) in
  let skipped = c (fun s -> s.Counters.morsels_skipped) in
  let batches = c (fun s -> s.Counters.batches) in
  [
    ("optimizer.plan_ms", per_query (fun p -> p.plan_s), "ms");
    ("engine.stage_ms", per_query (fun p -> p.stage_s), "ms");
    ("engine.exec_ms", per_query (fun p -> p.exec_s), "ms");
    ("engine.scan_ms", per_pass (fun s -> ms s.Counters.scan_ns), "ms");
    ("engine.build_ms", per_pass (fun s -> ms s.Counters.build_ns), "ms");
    ("engine.probe_ms", per_pass (fun s -> ms s.Counters.probe_ns), "ms");
    ("engine.merge_ms", per_pass (fun s -> ms s.Counters.merge_ns), "ms");
    ("engine.batches", batches, "count");
    ("engine.lanes_batch", c (fun s -> s.Counters.lanes_batch), "count");
    ("engine.lanes_tuple", c (fun s -> s.Counters.lanes_tuple), "count");
    ("engine.batch_density", per_pass Counters.selection_density, "ratio");
    ( "plugin.index_build_ms",
      1000. *. Util.median (List.map (fun s -> s.index_build_s) sessions),
      "ms" );
    ("plugin.rows_scanned", c (fun s -> s.Counters.tuples), "count");
    ("plugin.slot_reads", c (fun s -> s.Counters.slot_reads), "count");
    ("cache.fill_ms", cold (fun p -> ms p.counters.Counters.fill_ns), "ms");
    ("cache.fill_rows", cold (fun p -> float_of_int p.cache.Manager.fill_rows), "count");
    ("cache.warm_fills", warm_cache (fun m -> m.Manager.fill_commits), "count");
    ( "cache.field_hit_ratio",
      (if hits +. misses > 0. then hits /. (hits +. misses) else 0.),
      "ratio" );
    ("cache.promotions", final (fun m -> m.Manager.promotions), "count");
    ("cache.sorted_projections", final (fun m -> m.Manager.sorted_projections), "count");
    ("cache.zone_maps", final (fun m -> m.Manager.zone_maps), "count");
    ("storage.zone_checks", c (fun s -> s.Counters.zone_checks), "count");
    ("storage.morsels_skipped", skipped, "count");
    ("storage.sorted_seeks", c (fun s -> s.Counters.sorted_seeks), "count");
    ("storage.probe_morsels_skipped", c (fun s -> s.Counters.probe_morsels_skipped), "count");
    ("storage.shards_pruned", c (fun s -> s.Counters.shards_pruned), "count");
    ( "storage.skip_ratio",
      (* the serial batch lane skips or drives each batch: skipped / both *)
      (if skipped +. batches > 0. then skipped /. (skipped +. batches) else 0.),
      "ratio" );
    ("gc.alloc_mb", Util.median (List.map (fun p -> p.alloc /. 1048576.) warm), "MiB");
    ("gc.major_collections", Util.median (List.map (fun p -> float_of_int p.majors) warm), "count");
  ]
