(* In-memory spans recorded by the benchmark around its own calls into the
   program's layers. A span carries its name, start, end, the span that
   caused it and the request it belongs to; spans are written out when the
   run ends. A layer's self time is its spans' durations minus the part
   their child spans cover. *)

type span = { id : int; name : string; t0 : float; t1 : float; parent : int; req : int }

type t = { mu : Mutex.t; mutable spans : span list; mutable next : int }

let create () = { mu = Mutex.create (); spans = []; next = 0 }

(* [span tr ~parent ~req name f] runs [f id] inside a span; without a
   tracer it only runs [f]. *)
let span tr ?(parent = -1) ~req name f =
  match tr with
  | None -> f (-1)
  | Some t ->
    Mutex.lock t.mu;
    let id = t.next in
    t.next <- id + 1;
    Mutex.unlock t.mu;
    let t0 = Unix.gettimeofday () in
    let record () =
      let s = { id; name; t0; t1 = Unix.gettimeofday (); parent; req } in
      Mutex.lock t.mu;
      t.spans <- s :: t.spans;
      Mutex.unlock t.mu
    in
    Fun.protect ~finally:record (fun () -> f id)

(* Per span name: (count, total seconds, self seconds), sorted by name. *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let n, tot, sf =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, sf +. self))
    t.spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"req\":%d}\n"
        s.id s.name s.t0 s.t1 s.parent s.req)
    (List.rev t.spans);
  close_out oc

let print_self_times oc t =
  Printf.fprintf oc "%-24s %8s %12s %12s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, (n, tot, self)) ->
      Printf.fprintf oc "%-24s %8d %12.3f %12.3f\n" name n (1000. *. tot) (1000. *. self))
    (self_times t)
