(* The campaign request shared by `campaign`, `serve` and `dispatch`:
   malformed requests are refused before any work (no heartbeat leaves
   the handler), the codec round-trips every spec dispatch can send, and
   the request's checkpoint spec is Montecarlo's, so spec hashes agree
   across the three entry points. *)

module Request = Mavr_sim.Request
module Montecarlo = Mavr_sim.Montecarlo
module Early_stop = Mavr_campaign.Early_stop
module Json = Mavr_telemetry.Json

let parse s =
  match Json.of_string s with Ok j -> j | Error m -> Alcotest.failf "bad fixture %s: %s" s m

(* (request line, fragment the error message must contain) *)
let malformed =
  [
    ({|{"profile":60,"trials":1,"ms":300,"layouts":2}|}, "\"profile\" must be a string");
    ({|{"trials":"3"}|}, "\"trials\" must be an integer");
    ({|{"ms":300.5}|}, "\"ms\" must be an integer");
    ({|{"seed":true}|}, "\"seed\" must be an integer");
    ({|{"faults":3}|}, "\"faults\" must be a string");
    ({|{"trials":-1}|}, "trials must be >= 0");
    ({|{"ms":-300}|}, "ms must be >= 0");
    ({|{"layouts":-2}|}, "layouts must be >= 0");
    ({|{"profile":"nope"}|}, "unknown profile");
    ({|{"profile":"tiny-0"}|}, "unknown profile");
    ({|{"faults":"bogus"}|}, "bogus");
    ({|{"early_stop":0.3}|}, "\"early_stop\" must be an object");
    ({|{"early_stop":{}}|}, "needs a target_halfwidth");
    ({|{"early_stop":{"target_halfwidth":"0.3"}}|}, "\"target_halfwidth\" must be a number");
    ({|{"early_stop":{"target_halfwidth":1.5}}|}, "target halfwidth");
    ({|{"early_stop":{"target_halfwidth":0.3,"batch":0}}|}, "batch");
    ({|{"early_stop":{"target_halfwidth":0.3,"min_trials":2.5}}|}, "\"min_trials\" must be");
    ({|{"shard":[0,5]}|}, "\"shard\" must be an object");
    ({|{"shard":{"lo":0}}|}, "integer lo and hi");
    ({|{"shard":{"lo":1,"hi":5}}|}, "cell-aligned");
    ({|{"shard":{"lo":0,"hi":100000}}|}, "cell-aligned");
    ({|{"trials":0,"shard":{"lo":0,"hi":0}}|}, "trials must be >= 1");
    ({|[1,2]|}, "JSON object");
  ]

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_malformed_rejected () =
  List.iter
    (fun (line, fragment) ->
      let lines = ref 0 in
      match Request.handler ~jobs:1 (parse line) ~progress:(fun _ -> incr lines) with
      | Ok _ -> Alcotest.failf "%s: accepted" line
      | Error m ->
          if not (contains ~sub:fragment m) then
            Alcotest.failf "%s: error %S lacks %S" line m fragment;
          Alcotest.(check int) (line ^ ": no heartbeat before the error") 0 !lines)
    malformed

let test_defaults_and_leniency () =
  let ok s = match Request.of_json (parse s) with Ok r -> r | Error m -> Alcotest.fail m in
  Alcotest.(check bool) "empty object is the default" true (ok "{}" = Request.default);
  Alcotest.(check bool) "unknown fields ignored" true
    (ok {|{"colour":"red","trials":5}|} = Request.default);
  Alcotest.(check string) "filler count names a tiny profile" "tiny-60"
    (ok {|{"profile":"60"}|}).profile.Mavr_firmware.Profile.name;
  Alcotest.(check bool) "canonical profile name accepted" true
    ((ok {|{"profile":"Arducopter"}|}).profile = Mavr_firmware.Profile.arducopter);
  Alcotest.(check (float 0.0)) "integer z accepted" 2.0
    (Early_stop.z (Option.get (ok {|{"early_stop":{"target_halfwidth":0.3,"z":2}}|}).early_stop))

let profiles = List.map (fun s -> Result.get_ok (Request.profile_of_string s))
    [ "tiny-1"; "60"; "tiny-100"; "arduplane"; "ardurover" ]

let policies =
  [
    None;
    Some (Early_stop.create ~target:0.3 ());
    Some (Early_stop.create ~z:2.576 ~min_trials:3 ~batch:2 ~target:0.125 ());
  ]

let grid f =
  List.iter
    (fun profile ->
      List.iter
        (fun faults ->
          List.iter
            (fun early_stop ->
              f
                {
                  Request.default with
                  profile;
                  faults;
                  early_stop;
                  trials = 4;
                  ms = 250;
                  layouts = 3;
                  seed = 17;
                })
            policies)
        Mavr_fault.Profile.all)
    profiles

let test_round_trip () =
  grid (fun r ->
      List.iter
        (fun shard ->
          let r = { r with shard } in
          let name = Json.to_string (Request.to_json r) in
          Alcotest.(check bool) ("value round trip " ^ name) true
            (Request.of_json (Request.to_json r) = Ok r);
          Alcotest.(check bool) ("wire round trip " ^ name) true
            (Request.of_json (parse (Json.to_string (Request.to_json r))) = Ok r))
        [ None; Some { Mavr_campaign.Dispatch.lo = 4; hi = 12 } ])

let test_checkpoint_spec_agrees () =
  grid (fun r ->
      List.iter
        (fun traced ->
          let direct =
            Montecarlo.checkpoint_spec ~ms:r.ms ~faults:r.faults ?early_stop:r.early_stop ~traced
              ~profile:r.profile.Mavr_firmware.Profile.name ~seed:r.seed ~trials:r.trials ()
          in
          let via = Request.checkpoint_spec ~traced r in
          Alcotest.(check string) "spec_hash" direct.spec_hash via.spec_hash;
          Alcotest.(check int) "tasks" direct.tasks via.tasks;
          Alcotest.(check int) "seed" direct.seed via.seed)
        [ false; true ];
      (* the shard is an envelope, not part of the campaign identity *)
      Alcotest.(check string) "shard leaves the hash alone"
        (Request.checkpoint_spec r).spec_hash
        (Request.checkpoint_spec { r with shard = Some { lo = 0; hi = 4 } }).spec_hash)

let () =
  Alcotest.run "request"
    [
      ( "decode",
        [
          Alcotest.test_case "malformed requests rejected" `Quick test_malformed_rejected;
          Alcotest.test_case "defaults and unknown fields" `Quick test_defaults_and_leniency;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "checkpoint spec agrees" `Quick test_checkpoint_spec_agrees;
        ] );
    ]
