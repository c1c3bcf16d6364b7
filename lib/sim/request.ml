module Json = Mavr_telemetry.Json
module Span = Mavr_telemetry.Span
module F = Mavr_firmware
module Fault = Mavr_fault
module Survival = Mavr_analysis.Survival
open Mavr_campaign

type t = {
  profile : F.Profile.t;
  trials : int;
  ms : int;
  layouts : int;
  seed : int;
  faults : Fault.Profile.t;
  early_stop : Early_stop.t option;
  shard : Dispatch.shard option;
}

(* Case-insensitive, so the canonical names ("Arduplane") that [to_json]
   sends round-trip. *)
let profile_of_string s =
  match String.lowercase_ascii s with
  | "arduplane" -> Ok F.Profile.arduplane
  | "arducopter" -> Ok F.Profile.arducopter
  | "ardurover" -> Ok F.Profile.ardurover
  | l -> (
      let count =
        if String.starts_with ~prefix:"tiny-" l then String.sub l 5 (String.length l - 5) else l
      in
      match int_of_string_opt count with
      | Some n when n >= 1 -> Ok (F.Profile.tiny ~n ~seed:2024)
      | _ ->
          Error
            (Printf.sprintf
               "unknown profile %S (use arduplane/arducopter/ardurover or a filler count)" s))

let default =
  {
    profile = F.Profile.tiny ~n:100 ~seed:2024;
    trials = 5;
    ms = 900;
    layouts = 10;
    seed = 0;
    faults = Fault.Profile.none;
    early_stop = None;
    shard = None;
  }

let checkpoint_spec ?traced r =
  Montecarlo.checkpoint_spec ~ms:r.ms ~faults:r.faults ?early_stop:r.early_stop ?traced
    ~profile:r.profile.F.Profile.name ~seed:r.seed ~trials:r.trials ()

let ( let* ) = Result.bind

let validate r =
  let at_least name min v =
    if v >= min then Ok () else Error (Printf.sprintf "%s must be >= %d (got %d)" name min v)
  in
  let* () = at_least "trials" (if r.shard = None then 0 else 1) r.trials in
  let* () = at_least "ms" 0 r.ms in
  let* () = at_least "layouts" 0 r.layouts in
  match r.shard with
  | None -> Ok r
  | Some { Dispatch.lo; hi } ->
      let tasks = (checkpoint_spec r).Checkpoint.tasks in
      if 0 <= lo && lo <= hi && hi <= tasks && lo mod r.trials = 0 && hi mod r.trials = 0 then
        Ok r
      else
        Error
          (Printf.sprintf "shard [%d,%d) is not a cell-aligned range of the %d-task grid" lo hi
             tasks)

(* ---- codec ------------------------------------------------------------- *)

let to_json r =
  Json.Obj
    ([
       ("profile", Json.String r.profile.F.Profile.name);
       ("trials", Json.Int r.trials);
       ("ms", Json.Int r.ms);
       ("layouts", Json.Int r.layouts);
       ("seed", Json.Int r.seed);
       ("faults", Json.String r.faults.Fault.Profile.name);
     ]
    @ (match r.early_stop with
      | None -> []
      | Some e ->
          [
            ( "early_stop",
              Json.Obj
                [
                  ("target_halfwidth", Json.Float (Early_stop.target e));
                  ("z", Json.Float (Early_stop.z e));
                  ("min_trials", Json.Int (Early_stop.min_trials e));
                  ("batch", Json.Int (Early_stop.batch e));
                ] );
          ])
    @
    match r.shard with
    | None -> []
    | Some { Dispatch.lo; hi } -> [ ("shard", Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi) ]) ]
    )

(* [field j k ty conv ~default parse]: [default] when [k] is absent, an
   error when present with a type [conv] rejects, else [parse]. *)
let field j k ty conv ~default parse =
  match Json.member k j with
  | None -> Ok default
  | Some v -> (
      match conv v with
      | Some x -> parse x
      | None -> Error (Printf.sprintf "request field %S must be %s" k ty))

let int j k ~default = field j k "an integer" Json.to_int ~default Result.ok
let obj = function Json.Obj _ as o -> Some o | _ -> None
let some x = Ok (Some x)

let early_stop_of_json o =
  let* target = field o "target_halfwidth" "a number" Json.to_float ~default:None some in
  let* z = field o "z" "a number" Json.to_float ~default:None some in
  let* min_trials = field o "min_trials" "an integer" Json.to_int ~default:None some in
  let* batch = field o "batch" "an integer" Json.to_int ~default:None some in
  match target with
  | None -> Error "request field \"early_stop\" needs a target_halfwidth"
  | Some target -> (
      try Ok (Some (Early_stop.create ?z ?min_trials ?batch ~target ()))
      with Invalid_argument m -> Error m)

let shard_of_json o =
  let* lo = field o "lo" "an integer" Json.to_int ~default:None some in
  let* hi = field o "hi" "an integer" Json.to_int ~default:None some in
  match (lo, hi) with
  | Some lo, Some hi -> Ok (Some { Dispatch.lo; hi })
  | _ -> Error "request field \"shard\" needs integer lo and hi"

let of_json j =
  match j with
  | Json.Obj _ ->
      let d = default in
      let* profile = field j "profile" "a string" Json.to_str ~default:d.profile profile_of_string in
      let* trials = int j "trials" ~default:d.trials in
      let* ms = int j "ms" ~default:d.ms in
      let* layouts = int j "layouts" ~default:d.layouts in
      let* seed = int j "seed" ~default:d.seed in
      let* faults = field j "faults" "a string" Json.to_str ~default:d.faults Fault.Profile.of_string in
      let* early_stop = field j "early_stop" "an object" obj ~default:d.early_stop early_stop_of_json in
      let* shard = field j "shard" "an object" obj ~default:d.shard shard_of_json in
      validate { profile; trials; ms; layouts; seed; faults; early_stop; shard }
  | _ -> Error "a request must be a JSON object"

(* ---- runner ------------------------------------------------------------ *)

type outcome = {
  census : Survival.t;
  grid : Montecarlo.t;
  pool : Pool.domain_stats array;
  span : Clock.span;
}

let build r = F.Build.build r.profile F.Profile.mavr

let domains_json stats =
  Json.List
    (Array.to_list
       (Array.map
          (fun (d : Pool.domain_stats) ->
            Json.Obj [ ("tasks", Json.Int d.tasks_run); ("busy_s", Json.Float d.busy_s) ])
          stats))

let run ?jobs ?tracer ?progress ?checkpoint r =
  let b = build r in
  let top_lane = Option.map (fun tr -> Span.lane tr ~sort:(-1) "campaign") tracer in
  let phase name f = match top_lane with None -> f () | Some l -> Span.span l name f in
  match
    Clock.time (fun () ->
        (* One pool serves both workloads; per-task seeds come from the
           campaign root, so the output never depends on the job count. *)
        Pool.with_pool ?jobs (fun pool ->
            Option.iter
              (fun p -> Progress.on_heartbeat p (fun () -> [ ("pool", domains_json (Pool.stats pool)) ]))
              progress;
            let census =
              phase "census" (fun () ->
                  Survival.census ~seed:(Survival.Root r.seed) ~pool ?tracer ?progress
                    ~layouts:r.layouts b.F.Build.image)
            in
            let grid =
              phase "grid" (fun () ->
                  Montecarlo.run ~pool ~ms:r.ms ~faults:r.faults ?tracer ?progress
                    ?early_stop:r.early_stop ?checkpoint ~seed:r.seed ~trials:r.trials b)
            in
            (census, grid, Pool.stats pool)))
  with
  | exception Checkpoint.Corrupt m -> Error m
  | (census, grid, pool), span ->
      Option.iter (fun p -> Progress.emit p ~reason:"final") progress;
      Ok { census; grid; pool; span }

let document ?(timing = false) r o =
  [
    ("profile", Json.String r.profile.F.Profile.name);
    ("seed", Json.Int r.seed);
    ("census", Survival.to_json o.census);
    ("grid", Montecarlo.to_json o.grid);
  ]
  @
  if not timing then []
  else
    let busy = Array.fold_left (fun a (d : Pool.domain_stats) -> a +. d.busy_s) 0.0 o.pool in
    let capacity = float_of_int (Array.length o.pool) *. o.span.Clock.wall_s in
    [
      ( "timing",
        Json.Obj
          (("jobs", Json.Int (Array.length o.pool))
          :: Clock.span_to_json_fields o.span
          @ [
              ( "pool",
                Json.Obj
                  [
                    ("domains", domains_json o.pool);
                    ("busy_s", Json.Float busy);
                    ("idle_s", Json.Float (Float.max 0.0 (capacity -. busy)));
                  ] );
            ]) );
    ]

let exit_status o =
  if
    o.census.Survival.feasible_layouts > 0
    || Montecarlo.takeovers o.grid Montecarlo.Mavr_defense > 0
  then 1
  else 0

(* ---- shards ------------------------------------------------------------ *)

let run_shard ?jobs r { Dispatch.lo; hi } ~send =
  (* The checkpoint stream and the heartbeats come from different worker
     domains under different locks; one more lock keeps lines whole. *)
  let send_mu = Mutex.create () in
  let send line = Mutex.protect send_mu (fun () -> send line) in
  let checkpoint = Checkpoint.create ~stream:send (checkpoint_spec r) in
  let progress = Progress.create ~sink:send () in
  Montecarlo.run_shard ?jobs ~ms:r.ms ~faults:r.faults ~progress ?early_stop:r.early_stop
    ~checkpoint ~lo ~hi ~seed:r.seed ~trials:r.trials (build r);
  Progress.emit progress ~reason:"final";
  Json.Obj
    [
      ("shard", Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi) ]);
      ("entries", Json.Int (Checkpoint.completed checkpoint));
    ]

let merge ?jobs r entries =
  let checkpoint = Checkpoint.create (checkpoint_spec r) in
  List.iter
    (fun (index, e) ->
      match e with
      | Checkpoint.Result v -> Checkpoint.record checkpoint ~index v
      | Checkpoint.Skip reason -> Checkpoint.skip checkpoint ~index ~reason)
    entries;
  run ?jobs ~checkpoint r

let handler ?jobs req ~progress:send =
  let* r = of_json req in
  match r.shard with
  | Some shard -> Ok (run_shard ?jobs r shard ~send)
  | None ->
      let progress = Progress.create ~sink:send () in
      let* o = run ?jobs ~progress r in
      Ok (Json.Obj (document r o))
