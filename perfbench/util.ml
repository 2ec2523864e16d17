(* Timing, statistics, file and answer-comparison helpers shared by the
   three workloads. *)

module Value = Proteus_model.Value
module Ptype = Proteus_model.Ptype

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank quantile of an unsorted sample; [nan] when empty. *)
let quantile p xs =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let mib bytes = float_of_int bytes /. 1048576.

(* OCaml heap high-water mark of this process, in MiB. *)
let peak_heap_mb () =
  mib ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))

let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let save path v =
  let oc = open_out_bin path in
  Marshal.to_channel oc v [];
  close_out oc

let load path =
  let ic = open_in_bin path in
  let v = Marshal.from_channel ic in
  close_in ic;
  v

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- answer comparison ------------------------------------------------- *)

(* Float aggregates are summed in engine-specific orders: compare with a
   relative tolerance. *)
let close_enough x y =
  Float.equal x y
  || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))

let rec approx_equal (a : Value.t) (b : Value.t) =
  match a, b with
  | Value.Float x, Value.Float y -> close_enough x y
  | Value.Record fa, Value.Record fb ->
    Array.length fa = Array.length fb
    && Array.for_all2
         (fun (na, va) (nb, vb) -> String.equal na nb && approx_equal va vb)
         fa fb
  | Value.Coll (ca, la), Value.Coll (cb, lb) ->
    ca = cb && List.length la = List.length lb && List.for_all2 approx_equal la lb
  | a, b -> Value.equal a b

let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

(* An answer as sorted rows of numbers: scalars are one row of one number,
   records one row of their numeric fields in order, collections one row
   per element. Used where the reference is a hand-written fold that knows
   the numbers but not the engine's record labels. *)
let rec numbers (v : Value.t) =
  match v with
  | Value.Int i -> [ float_of_int i ]
  | Value.Float f -> [ f ]
  | Value.Record fs -> List.concat_map (fun (_, x) -> numbers x) (Array.to_list fs)
  | _ -> []

let rows_of (v : Value.t) =
  let rows =
    match v with
    | Value.Coll (_, es) -> List.map numbers es
    | v -> [ numbers v ]
  in
  List.sort compare rows

let rows_match expected actual =
  List.length expected = List.length actual
  && List.for_all2
       (fun e a -> List.length e = List.length a && List.for_all2 close_enough e a)
       expected actual
