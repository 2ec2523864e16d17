(* tpch_adaptive: the Section 7.1 templates (projection, selection, join,
   group-by) at several selectivities over lineitem and orders in CSV and
   JSON (rows shuffled, JSON field order shuffled), binary lineitem columns,
   and an 8-way binary lineitem shard set stored in l_orderkey order. One
   domain, promotion on, a cache budget that fits. *)

module Db = Proteus.Db
module Tpch = Proteus_tpch.Tpch
module Q = Tpch.Queries
module Value = Proteus_model.Value
module Manager = Proteus_cache.Manager

let sf = 0.01

type template =
  | Projection of Q.projection_variant
  | Selection of int  (** predicates *)
  | Join of Q.join_variant * string  (** orders dataset *)
  | Group_by of int  (** aggregates *)

(* (id, template, lineitem dataset, selectivity) *)
let templates =
  [
    ("proj_agg4_csv_10", Projection Q.Agg4, "li_csv", 0.1);
    ("proj_agg4_csv_50", Projection Q.Agg4, "li_csv", 0.5);
    ("proj_count_json_10", Projection Q.Count1, "li_json", 0.1);
    ("proj_count_json_50", Projection Q.Count1, "li_json", 0.5);
    ("proj_max_col_10", Projection Q.Max1, "li_col", 0.1);
    ("proj_max_col_100", Projection Q.Max1, "li_col", 1.0);
    ("proj_agg4_shards_10", Projection Q.Agg4, "li_shards", 0.1);
    ("proj_agg4_shards_50", Projection Q.Agg4, "li_shards", 0.5);
    ("sel3_csv_20", Selection 3, "li_csv", 0.2);
    ("sel1_json_20", Selection 1, "li_json", 0.2);
    ("sel4_shards_20", Selection 4, "li_shards", 0.2);
    ("join_agg2_ordjson_licsv_10", Join (Q.JAgg2, "ord_json"), "li_csv", 0.1);
    ("join_agg2_ordjson_licsv_50", Join (Q.JAgg2, "ord_json"), "li_csv", 0.5);
    ("join_count_ordcsv_lishards_20", Join (Q.JCount, "ord_csv"), "li_shards", 0.2);
    ("join_max_ordcsv_lijson_20", Join (Q.JMax, "ord_csv"), "li_json", 0.2);
    ("group4_col_50", Group_by 4, "li_col", 0.5);
    ("group3_shards_10", Group_by 3, "li_shards", 0.1);
    ("group1_json_50", Group_by 1, "li_json", 0.5);
    ("group4_csv_100", Group_by 4, "li_csv", 1.0);
  ]

let plan ~order_count (_, t, lineitem, selectivity) =
  match t with
  | Projection variant -> Q.projection ~lineitem ~order_count ~variant ~selectivity
  | Selection predicates -> Q.selection ~lineitem ~order_count ~predicates ~selectivity
  | Join (variant, orders) -> Q.join ~orders ~lineitem ~order_count ~variant ~selectivity
  | Group_by aggregates -> Q.group_by ~lineitem ~order_count ~aggregates ~selectivity

(* --- reference folds over the generated records --------------------------- *)

type li = { ok : int; ln : int; qty : int; price : float; disc : float; tax : float }

let li_of v =
  let f = Value.field v in
  {
    ok = Value.to_int (f "l_orderkey");
    ln = Value.to_int (f "l_linenumber");
    qty = Value.to_int (f "l_quantity");
    price = Value.to_float (f "l_extendedprice");
    disc = Value.to_float (f "l_discount");
    tax = Value.to_float (f "l_tax");
  }

let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r

(* The answer of one template as sorted rows of numbers (Util.rows_of). *)
let reference ~order_count ~lineitems ~order_price (_, t, _, selectivity) =
  let x = max 1 (int_of_float (selectivity *. float_of_int order_count)) in
  let sel = List.filter (fun l -> l.ok < x) lineitems in
  let cnt = float_of_int (List.length sel) in
  let fmax f = List.fold_left (fun m l -> Float.max m (f l)) Float.neg_infinity sel in
  let qty l = float_of_int l.qty in
  match t with
  | Projection Q.Count1 -> [ [ cnt ] ]
  | Projection Q.Max1 -> [ [ fmax qty ] ]
  | Projection Q.Agg4 -> [ [ cnt; fmax qty; cnt; fmax (fun l -> l.disc) ] ]
  | Selection n ->
    let preds =
      take n
        [ (fun _ -> true); (fun l -> l.qty < 51); (fun l -> l.disc < 0.11); (fun l -> l.tax < 0.09) ]
    in
    [ [ float_of_int (List.length (List.filter (fun l -> List.for_all (fun p -> p l) preds) sel)) ] ]
  | Join (v, _) -> (
    let prices = List.filter_map (fun l -> Hashtbl.find_opt order_price l.ok) sel in
    let n = float_of_int (List.length prices) in
    let mx = List.fold_left Float.max Float.neg_infinity prices in
    match v with Q.JCount -> [ [ n ] ] | Q.JMax -> [ [ mx ] ] | Q.JAgg2 -> [ [ n; mx ] ])
  | Group_by n ->
    let groups = Hashtbl.create 8 in
    List.iter
      (fun l -> Hashtbl.replace groups l.ln (l :: Option.value ~default:[] (Hashtbl.find_opt groups l.ln)))
      sel;
    let row ln ls =
      let agg f init g = List.fold_left (fun a l -> f a (g l)) init ls in
      float_of_int ln
      :: take n
           [
             float_of_int (List.length ls);
             agg ( +. ) 0. qty;
             agg Float.max Float.neg_infinity (fun l -> l.price);
             agg Float.min Float.infinity (fun l -> l.disc);
           ]
    in
    List.sort compare (Hashtbl.fold (fun ln ls acc -> row ln ls :: acc) groups [])

(* --- inputs ------------------------------------------------------------ *)

let file dir name = Filename.concat dir name

let gen ~seed ~dir =
  let d = Tpch.generate ~seed ~sf () in
  Util.write_file (file dir "li.csv") (Tpch.lineitem_csv d);
  Util.write_file (file dir "li.json") (Tpch.lineitem_json ~shuffle_fields:true d);
  Util.write_file (file dir "ord.csv") (Tpch.orders_csv d);
  Util.write_file (file dir "ord.json") (Tpch.orders_json ~shuffle_fields:true d);
  Util.save (file dir "li_cols.bin") (Tpch.lineitem_columns d);
  let key v = Value.to_int (Value.field v "l_orderkey") in
  Util.save (file dir "li_sorted.bin")
    (List.stable_sort (fun a b -> compare (key a) (key b)) d.Tpch.lineitems);
  let lineitems = List.map li_of d.Tpch.lineitems in
  let order_price = Hashtbl.create d.Tpch.order_count in
  List.iter
    (fun o ->
      Hashtbl.replace order_price (Value.to_int (Value.field o "o_orderkey"))
        (Value.to_float (Value.field o "o_totalprice")))
    d.Tpch.orders;
  let order_count = d.Tpch.order_count in
  Util.save (file dir "expected.bin")
    ( order_count,
      List.map
        (fun q ->
          let id, _, _, _ = q in
          (id, reference ~order_count ~lineitems ~order_price q))
        templates )

let spec ~seed:_ ~dir =
  let order_count, expected = (Util.load (file dir "expected.bin") : int * (string * float list list) list) in
  {
    Passes.setup =
      (fun () ->
        let cols = Util.load (file dir "li_cols.bin") and sorted = Util.load (file dir "li_sorted.bin") in
        fun () ->
          let db = Db.create ~caching:{ Manager.default_config with Manager.promote = true } () in
          let li = Tpch.lineitem_type and ord = Tpch.order_type in
          Db.register_csv_file db ~name:"li_csv" ~element:li ~path:(file dir "li.csv") ();
          Db.register_json_file db ~name:"li_json" ~element:li ~path:(file dir "li.json");
          Db.register_csv_file db ~name:"ord_csv" ~element:ord ~path:(file dir "ord.csv") ();
          Db.register_json_file db ~name:"ord_json" ~element:ord ~path:(file dir "ord.json");
          Db.register_columns db ~name:"li_col" ~element:li cols;
          Db.register_sharded_rows db ~name:"li_shards" ~element:li ~shards:8 sorted;
          db);
    raw = [ "li_csv"; "li_json"; "ord_csv"; "ord_json" ];
    queries = List.map (fun ((id, _, _, _) as q) -> (id, plan ~order_count q)) templates;
    settle = 3;
    warm = 6;
    check = (fun id v -> Util.rows_match (List.assoc id expected) (Util.rows_of v));
  }
