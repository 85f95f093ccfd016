type severity = Error | Warning

type site =
  | Query
  | Node of int
  | Group of int

type code =
  (* 0xx: logical expressions *)
  | Unknown_relation
  | Unknown_attribute
  | Selectivity_range
  | Selection_target
  | Join_span
  | Cross_product
  | Duplicate_relation
  (* 1xx: plan structure *)
  | Choose_arity
  | Operator_arity
  | Pid_aliasing
  | Sharing_lost
  (* 2xx: interval costs *)
  | Rows_invalid
  | Width_invalid
  | Cost_interval_inverted
  | Total_cost_mismatch
  | Rows_exceed_inputs
  | Pareto_dominated
  (* 3xx: schema and semantics *)
  | Missing_relation
  | Missing_attribute
  | Missing_index
  | Attribute_out_of_scope
  | Join_pred_span
  | Rels_mismatch
  | Choose_rels_mismatch
  | Choose_order_unsupported
  (* 4xx: memo state *)
  | Dangling_group_ref
  | Group_rels_mismatch
  | Winner_group_mismatch
  | Winner_order_mismatch
  (* 5xx: abstract interpretation *)
  | Choose_uncovered
  | Choose_dead_alternative
  | Budget_unsatisfiable
  | Fingerprint_collision
  | Unchecked_pipeline

let id = function
  | Unknown_relation -> "DQEP001"
  | Unknown_attribute -> "DQEP002"
  | Selectivity_range -> "DQEP003"
  | Selection_target -> "DQEP004"
  | Join_span -> "DQEP005"
  | Cross_product -> "DQEP006"
  | Duplicate_relation -> "DQEP007"
  | Choose_arity -> "DQEP101"
  | Operator_arity -> "DQEP102"
  | Pid_aliasing -> "DQEP103"
  | Sharing_lost -> "DQEP104"
  | Rows_invalid -> "DQEP201"
  | Width_invalid -> "DQEP202"
  | Cost_interval_inverted -> "DQEP203"
  | Total_cost_mismatch -> "DQEP204"
  | Rows_exceed_inputs -> "DQEP205"
  | Pareto_dominated -> "DQEP206"
  | Missing_relation -> "DQEP301"
  | Missing_attribute -> "DQEP302"
  | Missing_index -> "DQEP303"
  | Attribute_out_of_scope -> "DQEP304"
  | Join_pred_span -> "DQEP305"
  | Rels_mismatch -> "DQEP306"
  | Choose_rels_mismatch -> "DQEP307"
  | Choose_order_unsupported -> "DQEP308"
  | Dangling_group_ref -> "DQEP401"
  | Group_rels_mismatch -> "DQEP402"
  | Winner_group_mismatch -> "DQEP403"
  | Winner_order_mismatch -> "DQEP404"
  | Choose_uncovered -> "DQEP501"
  | Choose_dead_alternative -> "DQEP502"
  | Budget_unsatisfiable -> "DQEP503"
  | Fingerprint_collision -> "DQEP504"
  | Unchecked_pipeline -> "DQEP505"

let slug = function
  | Unknown_relation -> "unknown-relation"
  | Unknown_attribute -> "unknown-attribute"
  | Selectivity_range -> "selectivity-range"
  | Selection_target -> "selection-target"
  | Join_span -> "join-span"
  | Cross_product -> "cross-product"
  | Duplicate_relation -> "duplicate-relation"
  | Choose_arity -> "choose-arity"
  | Operator_arity -> "operator-arity"
  | Pid_aliasing -> "pid-aliasing"
  | Sharing_lost -> "sharing-lost"
  | Rows_invalid -> "rows-invalid"
  | Width_invalid -> "width-invalid"
  | Cost_interval_inverted -> "cost-interval-inverted"
  | Total_cost_mismatch -> "total-cost-mismatch"
  | Rows_exceed_inputs -> "rows-exceed-inputs"
  | Pareto_dominated -> "pareto-dominated"
  | Missing_relation -> "missing-relation"
  | Missing_attribute -> "missing-attribute"
  | Missing_index -> "missing-index"
  | Attribute_out_of_scope -> "attribute-out-of-scope"
  | Join_pred_span -> "join-pred-span"
  | Rels_mismatch -> "rels-mismatch"
  | Choose_rels_mismatch -> "choose-rels-mismatch"
  | Choose_order_unsupported -> "choose-order-unsupported"
  | Dangling_group_ref -> "dangling-group-ref"
  | Group_rels_mismatch -> "group-rels-mismatch"
  | Winner_group_mismatch -> "winner-group-mismatch"
  | Winner_order_mismatch -> "winner-order-mismatch"
  | Choose_uncovered -> "choose-uncovered"
  | Choose_dead_alternative -> "choose-dead-alternative"
  | Budget_unsatisfiable -> "budget-unsatisfiable"
  | Fingerprint_collision -> "fingerprint-collision"
  | Unchecked_pipeline -> "unchecked-pipeline"

let default_severity = function
  | Sharing_lost | Rows_exceed_inputs | Pareto_dominated
  | Choose_dead_alternative | Fingerprint_collision | Unchecked_pipeline ->
    Warning
  | _ -> Error

(* The feasibility subset: catalog drift the executor can survive by
   pruning choose-plan alternatives (paper, Section 2).  Everything else
   signals a corrupt plan. *)
let is_feasibility = function
  | Missing_relation | Missing_attribute | Missing_index -> true
  | _ -> false

type t = {
  code : code;
  severity : severity;
  site : site;
  message : string;
}

let make ?severity ~site code message =
  let severity =
    match severity with Some s -> s | None -> default_severity code
  in
  { code; severity; site; message }

let is_error d = d.severity = Error
let errors l = List.filter is_error l
let has_errors l = List.exists is_error l

let severity_string = function Error -> "error" | Warning -> "warning"

let pp_site ppf = function
  | Query -> Format.pp_print_string ppf "query"
  | Node pid -> Format.fprintf ppf "node #%d" pid
  | Group gid -> Format.fprintf ppf "group %d" gid

let pp ppf d =
  Format.fprintf ppf "%s %s (%s) at %a: %s"
    (severity_string d.severity) (id d.code) (slug d.code) pp_site d.site
    d.message

let to_string d = Format.asprintf "%a" pp d

let pp_list ppf l =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp ppf l

let list_to_string l = String.concat "; " (List.map to_string l)

let site_jsonv = function
  | Query -> Json.Obj [ ("kind", Json.String "query") ]
  | Node pid -> Json.Obj [ ("kind", Json.String "node"); ("pid", Json.Int pid) ]
  | Group gid ->
    Json.Obj [ ("kind", Json.String "group"); ("gid", Json.Int gid) ]

let to_jsonv d =
  Json.Obj
    [
      ("code", Json.String (id d.code));
      ("name", Json.String (slug d.code));
      ("severity", Json.String (severity_string d.severity));
      ("site", site_jsonv d.site);
      ("message", Json.String d.message);
    ]

let to_json d = Json.to_string (to_jsonv d)
let list_to_json l = Json.to_string (Json.List (List.map to_jsonv l))

