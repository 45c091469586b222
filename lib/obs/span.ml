module Json = Elastic_metrics.Json

type kind =
  | Campaign
  | Shard
  | Attempt
  | Reference_run
  | Compile
  | Settle
  | Checkpoint_write
  | Backoff_sleep

let kind_name = function
  | Campaign -> "campaign"
  | Shard -> "shard"
  | Attempt -> "attempt"
  | Reference_run -> "reference-run"
  | Compile -> "compile"
  | Settle -> "settle"
  | Checkpoint_write -> "checkpoint-write"
  | Backoff_sleep -> "backoff-sleep"

type attr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;
  sp_kind : kind;
  sp_name : string;
  sp_track : int;
  sp_start_ns : int64;
  sp_end_ns : int64;
  sp_attrs : (string * attr) list;
}

let no_parent = -1

let duration_ns t =
  let d = Int64.sub t.sp_end_ns t.sp_start_ns in
  if Int64.compare d 0L < 0 then 0L else d

let duration_seconds t = Int64.to_float (duration_ns t) *. 1e-9

let attr_to_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let to_json ~base_ns t =
  Json.Obj
    [ ("id", Json.Int t.sp_id);
      ("parent", Json.Int t.sp_parent);
      ("track", Json.Int t.sp_track);
      ("kind", Json.Str (kind_name t.sp_kind));
      ("name", Json.Str t.sp_name);
      ("start_ns", Json.Int (Int64.to_int (Int64.sub t.sp_start_ns base_ns)));
      ("dur_ns", Json.Int (Int64.to_int (duration_ns t)));
      ("attrs",
       Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) t.sp_attrs)) ]

let pp ~base_ns ppf t =
  let start_us =
    Int64.to_float (Int64.sub t.sp_start_ns base_ns) /. 1e3
  in
  Fmt.pf ppf "[w%d] %-16s %-24s +%.1fus %.1fus (id %d <- %d)%s" t.sp_track
    (kind_name t.sp_kind) t.sp_name start_us
    (Int64.to_float (duration_ns t) /. 1e3)
    t.sp_id t.sp_parent
    (match t.sp_attrs with
     | [] -> ""
     | attrs ->
       " "
       ^ String.concat " "
           (List.map
              (fun (k, v) ->
                 Fmt.str "%s=%s" k
                   (match v with
                    | Int i -> string_of_int i
                    | Float f -> Fmt.str "%g" f
                    | Str s -> s
                    | Bool b -> string_of_bool b))
              attrs))
