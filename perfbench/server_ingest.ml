(* server_ingest: the line-protocol server (Server.serve, default config but
   one scheduler worker, on an ephemeral loopback port) over raw CSV, raw
   JSON and binary lineitem. Two
   closed-loop connections from this process send `param` + `run` requests
   of four parameterized shapes. A session starts on untouched files; its
   rounds are separated by Db.append of one fixed batch of rows to the CSV
   and the JSON file, so writes sit beside reads. *)

module Db = Proteus.Db
module Tpch = Proteus_tpch.Tpch
module Value = Proteus_model.Value
module Schema = Proteus_model.Schema
module Server = Proteus_server.Server
module Scheduler = Proteus_server.Scheduler

let sf = 0.004
let batch_rows = 200
let clients = 2
(* Requests per connection per round. Two requests of a round pay for the
   latest append (the first CSV and JSON reads: index rebuilds, cache
   refills). At 5 they are 20% of a round, so query_p90_ms sits in the
   middle of them, not at their lower edge, where the requests that queue
   behind them move it from run to run. *)
let per_round = 5
let rounds = 5  (* per session: one cold round, then four after appends *)

(* (SQL, parameter values); the csv and json shapes see the appends *)
let shapes ~order_count =
  let keys = List.map (fun f -> 1 + int_of_float (f *. float_of_int order_count)) [ 0.05; 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  [|
    ("SELECT COUNT(1), SUM(l_extendedprice) FROM li_csv WHERE l_orderkey < ?", keys);
    ("SELECT COUNT(1), SUM(l_quantity) FROM li_json WHERE l_orderkey < ?", keys);
    ( "SELECT l_linenumber, COUNT(1), SUM(l_quantity) FROM li_bin WHERE l_orderkey < ? GROUP \
       BY l_linenumber ORDER BY l_linenumber",
      keys );
    ("SELECT COUNT(1), SUM(l_discount) FROM li_csv WHERE l_quantity < ?", [ 5; 10; 20; 30; 40; 51 ]);
  |]

let appended_shape s = s <> 2

(* The k-th request of connection c: a fixed schedule, so every run sends
   the same mix whatever the seed. *)
let pick ~nshapes ~nparams c k = ((c + k) mod nshapes, ((k * 5) + c) mod nparams)

(* --- inputs and reference folds ------------------------------------------ *)

let file dir name = Filename.concat dir name

let batch ~seed ~order_count =
  let rng = Random.State.make [| seed; 7 |] in
  List.init batch_rows (fun _ ->
      Value.record
        [
          ("l_orderkey", Value.Int (1 + Random.State.int rng order_count));
          ("l_linenumber", Value.Int (1 + Random.State.int rng 7));
          ("l_quantity", Value.Int (1 + Random.State.int rng 50));
          ("l_extendedprice", Value.Float (float_of_int (Random.State.int rng 10_000_000) /. 100.));
          ("l_discount", Value.Float (float_of_int (Random.State.int rng 11) /. 100.));
          ("l_tax", Value.Float (float_of_int (Random.State.int rng 9) /. 100.));
        ])

(* Answer rows of shape [s] with parameter [p] over [rows]. *)
let fold s p rows =
  let f v name = Value.field v name in
  let num v = Value.to_float v in
  let where =
    List.filter
      (fun r -> Value.to_int (f r (if s = 3 then "l_quantity" else "l_orderkey")) < p)
      rows
  in
  let cnt = float_of_int (List.length where) in
  let total name = List.fold_left (fun a r -> a +. num (f r name)) 0. where in
  match s with
  | 0 -> [ [ cnt; total "l_extendedprice" ] ]
  | 1 -> [ [ cnt; total "l_quantity" ] ]
  | 3 -> [ [ cnt; total "l_discount" ] ]
  | _ ->
    List.filter_map
      (fun ln ->
        let g = List.filter (fun r -> Value.to_int (f r "l_linenumber") = ln) where in
        if g = [] then None
        else
          Some
            [
              float_of_int ln;
              float_of_int (List.length g);
              List.fold_left (fun a r -> a +. num (f r "l_quantity")) 0. g;
            ])
      [ 1; 2; 3; 4; 5; 6; 7 ]

let gen ~seed ~dir =
  let d = Tpch.generate ~seed ~sf () in
  let order_count = d.Tpch.order_count in
  let extra = batch ~seed ~order_count in
  let li = Tpch.lineitem_type in
  Util.write_file (file dir "li.csv") (Tpch.lineitem_csv d);
  Util.write_file (file dir "li.json") (Tpch.lineitem_json ~shuffle_fields:true d);
  Util.save (file dir "li_cols.bin") (Tpch.lineitem_columns d);
  Util.write_file (file dir "batch.csv")
    (Proteus_format.Csv.of_records Proteus_format.Csv.default_config (Schema.of_type li) extra);
  Util.write_file (file dir "batch.json")
    (String.concat ""
       (List.map
          (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r) ^ "\n")
          extra));
  let expected =
    Array.mapi
      (fun s (_, params) ->
        Array.of_list (List.map (fun p -> (fold s p d.Tpch.lineitems, fold s p extra)) params))
      (shapes ~order_count)
  in
  Util.save (file dir "expected.bin") (order_count, expected)

(* The reference after [r] appends: the base answer plus r times the
   batch's, for the shapes over appended files. *)
let expected_rows expected ~appends s p =
  let base, extra = expected.(s).(p) in
  if not (appended_shape s) || appends = 0 then base
  else
    match base, extra with
    | [ b ], [ e ] -> [ List.map2 (fun b e -> b +. (float_of_int appends *. e)) b e ]
    | _ -> base

(* --- the client ---------------------------------------------------------- *)

type conn = { ic : in_channel; oc : out_channel; sock : Unix.file_descr }

let connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { ic = Unix.in_channel_of_descr sock; oc = Unix.out_channel_of_descr sock; sock }

(* One request, sent as one write: "param V" and "run SQL". Returns the
   result lines, or the server's error line or the I/O error. *)
let request c sql p =
  try
    Printf.fprintf c.oc "param %d\nrun %s\n" p sql;
    flush c.oc;
    let ack = input_line c.ic in
    if ack <> "ok" then Error ack
    else
      let head = input_line c.ic in
      match String.split_on_char ' ' head with
      | [ "ok"; n ] -> Ok (List.init (int_of_string n) (fun _ -> input_line c.ic))
      | _ -> Error head
  with (End_of_file | Sys_error _ | Unix.Unix_error _ | Failure _) as e -> Error (Printexc.to_string e)

let rows_of_lines lines =
  List.sort compare
    (List.map
       (fun l -> Util.numbers (Proteus_format.Json.to_value (Proteus_format.Json.parse_string l)))
       lines)

type sample = {
  shape : int;
  param : int;
  appends : int;
  latency : float;
  reply : (string list, string) result;
  inproc : Scheduler.completion option;  (** traced: the same request in-process *)
  inproc_s : float;
  plan_s : float;
}

type round = { r_wall : float; r_samples : sample list; r_alloc : float; r_majors : int }

type session = {
  setup_s : float;
  cold : round;
  warm_rounds : round list;
  append_s : float list;
  cache_bytes : int;
  server_stats : string;
}

let run_round tr ~db ~sched ~conns ~shapes ~appends ~round_no =
  Gc.full_major ();
  let alloc0 = Util.allocated_bytes () and majors0 = Util.major_collections () in
  let nshapes = Array.length shapes and nparams = List.length (snd shapes.(0)) in
  let out = Array.make clients [] in
  let t0 = Util.now () in
  let client c =
    let conn = List.nth conns c in
    for k = 0 to per_round - 1 do
      let s, pi = pick ~nshapes ~nparams c ((round_no * per_round) + k) in
      let sql, params = shapes.(s) in
      let p = List.nth params pi in
      let req = (((round_no * clients) + c) * per_round) + k in
      let reply, latency =
        Trace.span tr ~req "server.request" (fun _ -> Util.timed (fun () -> request conn sql p))
      in
      let inproc, inproc_s, plan_s =
        match sched with
        | None -> (None, 0., 0.)
        | Some sched ->
          let _, plan_s =
            Trace.span tr ~req "optimizer" (fun _ ->
                Util.timed (fun () ->
                    Proteus_optimizer.Optimizer.optimize (Db.catalog db) (Db.plan_sql db sql)))
          in
          let r, inproc_s =
            Trace.span tr ~req "server.scheduler_run" (fun _ ->
                Util.timed (fun () ->
                    Scheduler.run sched (Scheduler.request ~params:[ ("1", Value.Int p) ] sql)))
          in
          ((match r with Ok c -> Some c | Error _ -> None), inproc_s, plan_s)
      in
      out.(c) <- { shape = s; param = pi; appends; latency; reply; inproc; inproc_s; plan_s } :: out.(c)
    done
  in
  let threads = List.init clients (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  let r_wall = Util.now () -. t0 in
  {
    r_wall;
    r_samples = List.concat (Array.to_list out);
    r_alloc = Util.allocated_bytes () -. alloc0;
    r_majors = Util.major_collections () - majors0;
  }

let check tally expected r =
  List.iter
    (fun s ->
      tally.Passes.attempted <- tally.Passes.attempted + 1;
      let ok =
        match s.reply with
        | Error line ->
          Printf.eprintf "shape %d: %s\n%!" s.shape line;
          false
        | Ok lines -> (
          match rows_of_lines lines with
          | rows -> Util.rows_match (expected_rows expected ~appends:s.appends s.shape s.param) rows
          | exception e ->
            Printf.eprintf "shape %d: unreadable reply (%s)\n%!" s.shape (Printexc.to_string e);
            false)
      in
      if not ok then begin
        tally.Passes.failed <- tally.Passes.failed + 1;
        Printf.eprintf "shape %d param %d after %d appends: wrong answer\n%!" s.shape s.param
          s.appends
      end)
    r.r_samples

(* Blocks until the server calls [ready] with its port. *)
let port_signal () =
  let mu = Mutex.create () and cv = Condition.create () and port = ref 0 in
  let ready p =
    Mutex.lock mu;
    port := p;
    Condition.signal cv;
    Mutex.unlock mu
  and wait () =
    Mutex.lock mu;
    while !port = 0 do
      Condition.wait cv mu
    done;
    Mutex.unlock mu;
    !port
  in
  (ready, wait)

let session tr tally ~dir ~order_count ~expected =
  Gc.full_major ();
  let cols = Util.load (file dir "li_cols.bin") in
  let stop = Atomic.make false and ready, wait_port = port_signal () in
  Gc.full_major ();
  let (db, server, port), setup_s =
    Util.timed (fun () ->
        let db = Db.create () in
        let li = Tpch.lineitem_type in
        Db.register_csv_file db ~name:"li_csv" ~element:li ~path:(file dir "li.csv") ();
        Db.register_json_file db ~name:"li_json" ~element:li ~path:(file dir "li.json");
        Db.register_columns db ~name:"li_bin" ~element:li cols;
        (* one scheduler worker: the default two add a second worker domain
           beside the connection threads on two vCPUs, and the rounds then
           measure how the host schedules them *)
        let server =
          Thread.create
            (fun () ->
              Server.serve ~ready ~stop db { Server.default_config with Server.port = 0; workers = 1 })
            ()
        in
        (db, server, wait_port ()))
  in
  let read name = In_channel.with_open_bin (file dir name) In_channel.input_all in
  let batch_csv = read "batch.csv" and batch_json = read "batch.json" in
  let conns = List.init clients (fun _ -> connect port) in
  let sched = Option.map (fun _ -> Scheduler.create ~workers:1 db) tr in
  let shapes = shapes ~order_count in
  let round appends round_no =
    let r = run_round tr ~db ~sched ~conns ~shapes ~appends ~round_no in
    check tally expected r;
    r
  in
  let cold = round 0 0 in
  let append_s = ref [] in
  let warm_rounds =
    List.init (rounds - 1) (fun i ->
        List.iter
          (fun (name, text) ->
            let (), dt =
              Trace.span tr ~req:(-1) "proteus.append" (fun _ ->
                  Util.timed (fun () -> Db.append db ~name text))
            in
            append_s := dt :: !append_s)
          [ ("li_csv", batch_csv); ("li_json", batch_json) ];
        round (i + 1) (i + 1))
  in
  let cache_bytes = Proteus_cache.Manager.resident_bytes (Db.cache_manager db) in
  let c0 = List.hd conns in
  output_string c0.oc "stats\n";
  flush c0.oc;
  let server_stats = input_line c0.ic in
  List.iter
    (fun c ->
      output_string c.oc "quit\n";
      flush c.oc;
      ignore (input_line c.ic);
      Unix.close c.sock)
    conns;
  Option.iter Scheduler.shutdown sched;
  Atomic.set stop true;
  Thread.join server;
  { setup_s; cold; warm_rounds; append_s = !append_s; cache_bytes; server_stats }

(* "... key=N ..." in the server's stats line *)
let stat_field line key =
  let prefix = key ^ "=" in
  List.fold_left
    (fun acc w ->
      if String.starts_with ~prefix w then
        float_of_string (String.sub w (String.length prefix) (String.length w - String.length prefix))
      else acc)
    0. (String.split_on_char ' ' line)

let summary s =
  let requests r = List.length r.r_samples in
  let rounds = s.cold :: s.warm_rounds in
  {
    Passes.s_setup = s.setup_s;
    s_cold = s.cold.r_wall;
    s_warm = List.map (fun r -> r.r_wall) s.warm_rounds;
    s_lat = List.concat_map (fun r -> List.map (fun x -> x.latency) r.r_samples) s.warm_rounds;
    s_busy = Util.sum (List.map (fun r -> r.r_wall) rounds) +. Util.sum s.append_s;
    s_answered = List.fold_left (fun n r -> n + requests r) 0 rounds;
    s_cache_bytes = s.cache_bytes;
  }

let measure ~seed:_ ~dir =
  let order_count, expected = (Util.load (file dir "expected.bin") : int * _) in
  fun tr seconds ->
    let tally = { Passes.attempted = 0; failed = 0 } in
    let sessions =
      Passes.repeat ~seconds ~min_sessions:3 (fun _ -> session tr tally ~dir ~order_count ~expected)
    in
    let warm = List.concat_map (fun s -> s.warm_rounds) sessions in
    let samples = List.concat_map (fun r -> r.r_samples) warm in
    let lat = List.map (fun s -> s.latency) samples in
    let layers =
      match tr with
      | None -> []
      | Some _ ->
        let cps = List.filter_map (fun s -> s.inproc) samples in
        let p50 f = 1000. *. Util.median (List.map f cps) in
        let stat key = Util.median (List.map (fun s -> stat_field s.server_stats key) sessions) in
        let hits = stat "hits" and misses = stat "misses" in
        [
          ( "optimizer.plan_ms",
            1000. *. Util.sum (List.map (fun s -> s.plan_s) samples) /. float_of_int (List.length samples),
            "ms" );
          ("server.queue_wait_ms", p50 (fun c -> c.Scheduler.cp_wait_seconds), "ms");
          ("server.compile_ms", p50 (fun c -> c.Scheduler.cp_compile_seconds), "ms");
          ("server.run_ms", p50 (fun c -> c.Scheduler.cp_run_seconds), "ms");
          ( "server.protocol_ms",
            1000. *. (Util.median lat -. Util.median (List.map (fun s -> s.inproc_s) samples)),
            "ms" );
          ("server.engine_cache_hit_ratio", hits /. Float.max 1. (hits +. misses), "ratio");
          ("server.engine_cache_invalidations", stat "invalidations", "count");
          ( "proteus.append_ms",
            1000. *. Util.median (List.concat_map (fun s -> s.append_s) sessions),
            "ms" );
          ("gc.alloc_mb", Util.median (List.map (fun r -> r.r_alloc /. 1048576.) warm), "MiB");
          ("gc.major_collections", Util.median (List.map (fun r -> float_of_int r.r_majors) warm), "count");
        ]
    in
    (tally.Passes.attempted, tally.Passes.failed, Passes.e2e (List.map summary sessions), layers)
