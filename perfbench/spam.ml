(* spam_session: the Section 7.2 sequence (all 50 queries) over raw JSON,
   raw CSV and a binary table, at one domain with the default caching
   policies and a cache budget below what an unbounded session keeps, so
   the format-biased eviction runs on every pass. *)

module Db = Proteus.Db
module Symantec = Proteus_symantec.Symantec
module Ptype = Proteus_model.Ptype
module Value = Proteus_model.Value
module Manager = Proteus_cache.Manager

let params seed = { Symantec.default_params with Symantec.seed }

(* An unbounded session keeps about 1.9 MiB of caches after one pass at
   these sizes (README); the budget holds about two thirds of that. *)
let cache_budget = 1_310_720

let json_file dir = Filename.concat dir "spam.json"
let csv_file dir = Filename.concat dir "spam.csv"
let bin_file dir = Filename.concat dir "spam_bin.bin"
let expected_file dir = Filename.concat dir "expected.bin"

let queries seed =
  Symantec.queries
    { Symantec.params = params seed; json_text = ""; csv_text = ""; bin_records = [] }

(* The CSV's records, decoded here with the standard library's number
   parsing: the library's CSV reader shares its number parser with the CSV
   plug-in, so it could not catch that parser's faults. *)
let decode_csv text =
  let fields = match Symantec.csv_type with Ptype.Record fs -> fs | _ -> assert false in
  List.filter_map
    (fun line ->
      if line = "" then None
      else
        let cells = String.split_on_char ',' line in
        if List.length cells <> List.length fields then failwith ("unexpected CSV row: " ^ line);
        Some
          (Value.record
             (List.map2
                (fun (name, ty) cell ->
                  ( name,
                    match ty with
                    | Ptype.Int -> Value.Int (int_of_string cell)
                    | Ptype.Float -> Value.Float (float_of_string cell)
                    | _ -> Value.String cell ))
                fields cells)))
    (String.split_on_char '\n' text)

(* Q1-Q25 (single datasets) are answered by the reference interpreter over
   records decoded here (JSON with the reference reader, which parses
   numbers with the standard library); its nested loops make the joins of
   Q26-Q50 take minutes, so those are answered by the un-specialised
   Volcano executor on a session without caches. *)
let gen ~seed ~dir =
  let s = Symantec.generate ~params:(params seed) () in
  Util.write_file (json_file dir) s.Symantec.json_text;
  Util.write_file (csv_file dir) s.Symantec.csv_text;
  Util.save (bin_file dir) s.Symantec.bin_records;
  let json_records =
    List.map Proteus_format.Json.to_value
      (Proteus_format.Json.parse_seq s.Symantec.json_text)
  in
  let csv_records = decode_csv s.Symantec.csv_text in
  let lookup name =
    if name = Symantec.json_name then json_records
    else if name = Symantec.csv_name then csv_records
    else if name = Symantec.bin_name then s.Symantec.bin_records
    else failwith ("no dataset " ^ name)
  in
  let volcano = Db.create ~caching:Manager.config_disabled () in
  Db.register_json volcano ~name:Symantec.json_name ~element:Symantec.json_type
    ~contents:s.Symantec.json_text;
  Db.register_csv volcano ~name:Symantec.csv_name ~element:Symantec.csv_type
    ~contents:s.Symantec.csv_text ();
  Db.register_rows volcano ~name:Symantec.bin_name ~element:Symantec.bin_type
    s.Symantec.bin_records;
  let expected =
    List.mapi
      (fun i (id, plan) ->
        let v =
          if i < 25 then Proteus_algebra.Interp.run ~lookup plan
          else Db.run_plan ~engine:Db.Engine_volcano volcano plan
        in
        (id, Util.sort_bag v))
      (queries seed)
  in
  Util.save (expected_file dir) expected

let spec ~seed ~dir =
  let expected : (string * Value.t) list = Util.load (expected_file dir) in
  {
    Passes.setup =
      (fun () ->
        let bin_records = Util.load (bin_file dir) in
        fun () ->
          let db = Db.create ~cache_budget () in
          Db.register_json_file db ~name:Symantec.json_name ~element:Symantec.json_type
            ~path:(json_file dir);
          Db.register_csv_file db ~name:Symantec.csv_name ~element:Symantec.csv_type
            ~path:(csv_file dir) ();
          Db.register_rows db ~name:Symantec.bin_name ~element:Symantec.bin_type bin_records;
          db);
    raw = [ Symantec.json_name; Symantec.csv_name ];
    queries = queries seed;
    settle = 1;
    warm = 3;
    check = (fun id v -> Util.approx_equal (List.assoc id expected) (Util.sort_bag v));
  }
