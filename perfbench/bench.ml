(* Benchmark program: runs one generated workload spec and prints one JSON
   result line.

   Usage: bench.exe < spec.json

   The spec is produced by run.py from the workload name and seed; this
   program never sees the seed itself.  It calls only the libraries'
   public functions and times them from outside: per-layer figures come
   from clocks around those calls and from the boot/warmup/flight spans
   that [Montecarlo.run ?tracer] already records.

   Output (last stdout line):
     {"correct": bool, "attempted": int, "failed": int,
      "metrics": {name: number, ...}}
   run.py attaches units from BENCHMARK.json and checks the name set. *)

module J = Mavr_telemetry.Json
module Span = Mavr_telemetry.Span
module Metrics = Mavr_telemetry.Metrics
module F = Mavr_firmware
module MC = Mavr_sim.Montecarlo
module A = Mavr_analysis
module Pool = Mavr_campaign.Pool
module Clock = Mavr_campaign.Clock

(* ---- spec ------------------------------------------------------------- *)

type kind = Grid | Analyze

type spec = {
  kind : kind;
  profile : string;
  faults : string;
  jobs : int;
  ms : int;
  trials : int;
  batch_seeds : int array;
  layout_seeds : int array;
  census_seed : int;
  census_layouts : int;
  layer_seed : int;
  seconds : float;
  trace : bool;
  setup_reps : int;
  plant_digest : bool;
}

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt

let spec_of_json j =
  let get k conv =
    match Option.bind (J.member k j) conv with Some v -> v | None -> fail "spec: bad or missing %S" k
  in
  let ints k =
    get k (function J.List l -> Some (Array.of_list (List.filter_map J.to_int l)) | _ -> None)
  in
  {
    kind =
      get "kind" (fun v ->
          match J.to_str v with Some "grid" -> Some Grid | Some "analyze" -> Some Analyze | _ -> None);
    profile = get "profile" J.to_str;
    faults = get "faults" J.to_str;
    jobs = get "jobs" J.to_int;
    ms = get "ms" J.to_int;
    trials = get "trials" J.to_int;
    batch_seeds = ints "batch_seeds";
    layout_seeds = ints "layout_seeds";
    census_seed = get "census_seed" J.to_int;
    census_layouts = get "census_layouts" J.to_int;
    layer_seed = get "layer_seed" J.to_int;
    seconds = get "seconds" J.to_float;
    trace = get "trace" (function J.Bool b -> Some b | _ -> None);
    setup_reps = get "setup_reps" J.to_int;
    plant_digest = get "plant_digest" (function J.Bool b -> Some b | _ -> None);
  }

let firmware_profile = function
  | "arduplane" -> F.Profile.arduplane
  | s when String.starts_with ~prefix:"tiny-" s -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some n when n >= 1 -> F.Profile.tiny ~n ~seed:2024
      | _ -> fail "unknown profile %S" s)
  | s -> fail "unknown profile %S" s

(* ---- measurement helpers --------------------------------------------- *)

let now = Clock.wall

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sum = List.fold_left ( +. ) 0.0

(* Repeat [f] until [budget_s] has elapsed, at least [min] and at most
   [max] times; returns every duration in seconds. *)
let repeat ?(min = 3) ?(max = 25) ~budget_s f =
  let start = now () in
  let rec go acc n =
    if n >= max || (n >= min && now () -. start >= budget_s) then List.rev acc
    else
      let (), d = timed f in
      go (d :: acc) (n + 1)
  in
  go [] 0

(* Loop over passes while the next one is predicted to end within
   [budget_s] (always at least [min]).  [f i] runs pass [i] and returns
   its duration. *)
let timed_loop ~budget_s ~min ~max f =
  let start = now () in
  let rec go acc i =
    let elapsed = now () -. start in
    let next = if acc = [] then 0.0 else median acc in
    if i >= max || (i >= min && elapsed +. next > budget_s) then List.rev acc
    else go (f i :: acc) (i + 1)
  in
  go [] 0

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
      | _ -> scan ()
    in
    let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
    float_of_int kb /. 1024.0
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ -> fail "cannot read VmHWM"

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* ---- host speed ------------------------------------------------------- *)

(* The host is a shared 2-vCPU virtual machine whose speed drifts by up to
   2x over minutes (co-tenants on sibling hyperthreads, stolen vCPU time):
   more than any regression bound could absorb.  End-to-end times are
   therefore reported in reference seconds: a timed unit's wall time
   scaled by [reference_probe_s / p], where [p] is the mean wall time of
   a fixed probe run just before and just after the unit, on as many
   domains as the workload uses.  The probe kernel calls none of the
   repository's code and allocates nothing, so no change to the program
   can speed it up or slow it down. *)

(* Probe wall time, roughly, on an uncontended vCPU of a 2-vCPU Intel Xeon
   virtual machine. *)
let reference_probe_s = 0.020

(* Random read-modify-writes over a 16 MB array (memory-bound) plus an
   integer hash loop (compute-bound).  The array lives outside the OCaml
   heap, so it does not change how the workload's heap is paced. *)
type probe_memory = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let probe_kernel (mem : probe_memory) =
  let mask = Bigarray.Array1.dim mem - 1 in
  let x = ref 0x2545F491 and s = ref 0 in
  for _ = 1 to 500_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !x land mask in
    mem.{i} <- mem.{i} + !s;
    s := !s + mem.{(i * 7) land mask}
  done;
  for k = 1 to 5_000_000 do
    s := ((!s * 31) + k) land 0xFFFFFFF
  done;
  ignore (Sys.opaque_identity !s)

type host_clock = { mems : probe_memory array; mutable last : float }

let probe c =
  let (), d =
    timed (fun () ->
        let others =
          List.init (Array.length c.mems - 1) (fun k ->
              Domain.spawn (fun () -> probe_kernel c.mems.(k + 1)))
        in
        probe_kernel c.mems.(0);
        List.iter Domain.join others)
  in
  d

let host_clock ~jobs =
  let memory () =
    let m = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
    Bigarray.Array1.fill m 0;
    m
  in
  let c = { mems = Array.init jobs (fun _ -> memory ()); last = 0.0 } in
  c.last <- probe c;
  c

(* Reference seconds of [wall] seconds that ran after a probe reading
   [before]; probes again, and the new reading becomes [c.last]. *)
let to_reference c ~before wall =
  c.last <- probe c;
  wall *. reference_probe_s *. 2.0 /. (before +. c.last)

(* [f]'s result, wall seconds and reference seconds. *)
let ref_timed c f =
  let before = c.last in
  let r, wall = timed f in
  (r, wall, to_reference c ~before wall)

(* ---- result accumulation --------------------------------------------- *)

let metrics : (string * float) list ref = ref []
let put name v = metrics := (name, v) :: !metrics
let attempted = ref 0
let failed = ref 0

let op ~n ~bad =
  attempted := !attempted + n;
  failed := !failed + bad

(* Per-layer names measured by only one kind of workload.  A traced run
   reports every name; a layer its workload never calls reads 0. *)
let one_kind_layer_names =
  [
    "objfile.of_hex_ms"; "objfile.to_hex_ms"; "master.provision_ms"; "master.boot_ms.p50";
    "master.boot_ms.p95"; "stream_patch.randomize_ms"; "randomize.randomize_ms";
    "master.reflashes"; "master.pages_programmed"; "cpu.insns"; "cpu.cycles"; "cpu.insn_per_s";
    "montecarlo.trial_ms.p50"; "montecarlo.trial_ms.p95"; "montecarlo.boot_share";
    "montecarlo.warmup_share"; "montecarlo.flight_share"; "scenario.create_ms";
    "scenario.cold_ms_per_sim_s"; "scenario.warm_ms_per_sim_s"; "detection_rate";
    "false_alarm_rate"; "fault.uplink.bits_flipped"; "fault.downlink.bits_flipped";
    "fault.seu.flash_flips"; "fault.seu.sram_flips"; "fault.reflash.pages_corrupted";
    "fault.reflash.retries"; "gcs.link.crc_errors"; "gcs.link.frames_ok"; "gcs.alarms";
    "pool.d0.busy_s"; "pool.d0.idle_s"; "pool.d1.busy_s"; "pool.d1.idle_s"; "pool.tasks";
    "join.to_json_ms"; "join.document_bytes"; "gc.top_heap_mb"; "gc.heap_mb_per_task";
    "gc.major_collections"; "gc.minor_mb"; "cfg.recover_ms"; "stackdepth.analyze_ms";
    "taint.analyze_ms"; "equiv.validate_ms"; "survival.census_ms"; "cfg.reachable_insns";
    "taint.findings"; "stackdepth.bound_bytes"; "equiv.layouts_accepted";
    "survival.feasible_layouts";
  ]

(* ---- set-up ----------------------------------------------------------- *)

(* Set-up is timed [setup_reps] times before the timed part and again
   between timed batches (passes), so its median spans the same host
   conditions as the rest of the run, not one instant of it.  [setup_s]
   is the median repetition in reference seconds; [firmware.build_ms] the
   median wall time of the firmware build inside it.  [f] returns its
   result and the wall seconds its firmware build took. *)
let setup_runs = ref []

let setup_once clock f =
  let (r, build_s), wall = timed f in
  (* Set-up is short: scaled by the latest probe rather than a new one. *)
  setup_runs := (wall *. reference_probe_s /. clock.last, build_s) :: !setup_runs;
  r

let report_setup () =
  put "setup_s" (median (List.map fst !setup_runs));
  put "firmware.build_ms" (1000.0 *. median (List.map snd !setup_runs))

(* ---- grid workloads --------------------------------------------------- *)

type batch = { doc : string; result : MC.t; wall_s : float; cpu_s : float; join_s : float }

(* Every batch and analysis pass starts from a collected heap, so one
   unit's garbage is not collected on the next unit's clock and the peak
   resident set is that of one unit, not of however many ran before it. *)
let run_batch spec ~pool ~faults ?tracer build seed =
  Gc.full_major ();
  let t0 = now () and c0 = Sys.time () in
  let result = MC.run ~pool ~ms:spec.ms ~faults ?tracer ~seed ~trials:spec.trials build in
  let t1 = now () in
  let doc = J.to_string (MC.to_json result) in
  let t2 = now () in
  { doc; result; wall_s = t2 -. t0; cpu_s = Sys.time () -. c0; join_s = t2 -. t1 }

let tasks_of spec faults =
  (MC.checkpoint_spec ~ms:spec.ms ~faults ~profile:spec.profile ~seed:0 ~trials:spec.trials ())
    .Mavr_campaign.Checkpoint.tasks

(* Output checks on one campaign document.  Returns the number of failed
   trials: each MAVR takeover (at any fault level) and each task missing
   from the run + skipped accounting. *)
let check_batch ~tasks (r : MC.t) =
  let takeovers =
    Array.fold_left (fun a l -> a + MC.level_takeovers l MC.Mavr_defense) 0 r.MC.levels
  in
  let covered =
    Array.fold_left
      (fun a (l : MC.level_result) ->
        Array.fold_left (fun a (c : MC.cell) -> a + c.trials + c.skipped) a l.cells
        + Array.fold_left (fun a (c : MC.control) -> a + c.flights + c.skipped) 0 l.controls)
      0 r.MC.levels
  in
  takeovers + abs (covered - tasks)

let flights (r : MC.t) =
  Array.fold_left
    (fun a (l : MC.level_result) ->
      Array.fold_left (fun a (c : MC.cell) -> a + c.trials) a l.cells
      + Array.fold_left (fun a (c : MC.control) -> a + c.flights) 0 l.controls)
    0 r.MC.levels

let registry_int (r : MC.t) name =
  match List.assoc_opt name (Metrics.snapshot r.MC.metrics) with
  | Some (Metrics.Counter_value v) | Some (Metrics.Gauge_value v) -> float_of_int v
  | Some (Metrics.Histogram_value h) -> float_of_int h.sum
  | None -> 0.0

(* Deterministic outcome rates of one campaign. *)
let outcome_rates (r : MC.t) =
  let det = ref 0 and att = ref 0 and alarmed = ref 0 and ctl = ref 0 in
  Array.iteri
    (fun i (l : MC.level_result) ->
      Array.iter (fun (c : MC.cell) -> att := !att + c.trials; det := !det + c.detections) l.cells;
      if i > 0 then
        Array.iter (fun (c : MC.control) -> ctl := !ctl + c.flights; alarmed := !alarmed + c.alarmed)
          l.controls)
    r.MC.levels;
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  (ratio !det !att, ratio !alarmed !ctl)

(* Boot/warmup/flight/trial span durations (seconds) from a tracer. *)
let span_durations tracer =
  let tbl = Hashtbl.create 8 in
  String.split_on_char '\n' (Span.to_jsonl tracer)
  |> List.iter (fun line ->
         if line <> "" then
           match J.of_string line with
           | Ok j -> (
               match
                 ( Option.bind (J.member "domain" j) J.to_str,
                   Option.bind (J.member "name" j) J.to_str,
                   Option.bind (J.member "dur" j) J.to_float )
               with
               | Some "host", Some name, Some dur ->
                   Hashtbl.replace tbl name ((dur /. 1e6) :: Option.value ~default:[] (Hashtbl.find_opt tbl name))
               | _ -> ())
           | Error e -> fail "trace line does not parse: %s" e);
  fun name -> Option.value ~default:[] (Hashtbl.find_opt tbl name)

(* The phase spans must account for the trial span within this share. *)
let share_tolerance = 0.05

(* Layer timings: each public entry point timed in isolation on the
   workload's firmware.  Only the traced run pays for them. *)
let time_layers spec (build : F.Build.t) =
  let image = build.F.Build.image in
  let ms xs = 1000.0 *. median xs in
  let hex = Mavr_obj.Symtab.to_hex image in
  put "objfile.to_hex_ms" (ms (repeat ~budget_s:0.5 (fun () -> ignore (Mavr_obj.Symtab.to_hex image))));
  put "objfile.of_hex_ms" (ms (repeat ~budget_s:1.0 (fun () -> ignore (Mavr_obj.Symtab.of_hex hex))));
  let config = { Mavr_core.Master.default_config with seed = spec.layer_seed } in
  let master () =
    let m = Mavr_core.Master.create ~config () in
    Mavr_core.Master.provision m image;
    m
  in
  put "master.provision_ms" (ms (repeat ~budget_s:0.5 (fun () -> ignore (master ()))));
  let m = master () in
  let boots =
    repeat ~budget_s:2.0 ~max:40 (fun () -> Mavr_core.Master.boot m ~app:(Mavr_avr.Cpu.create ()))
  in
  put "master.boot_ms.p50" (ms boots);
  put "master.boot_ms.p95" (1000.0 *. percentile 0.95 boots);
  let seed = ref spec.layer_seed in
  let next () = incr seed; !seed in
  put "stream_patch.randomize_ms"
    (ms
       (repeat ~budget_s:0.5 (fun () ->
            ignore (Mavr_core.Stream_patch.randomize_image ~seed:(next ()) image ~page_bytes:256))));
  put "randomize.randomize_ms"
    (ms (repeat ~budget_s:0.5 (fun () -> ignore (Mavr_core.Randomize.randomize ~seed:(next ()) image))));
  let sim_s = float_of_int spec.ms /. 1000.0 in
  let rigs =
    List.init 3 (fun _ ->
        let s, create_s =
          timed (fun () -> Mavr_sim.Scenario.create ~image Mavr_sim.Scenario.No_defense)
        in
        let (), cold = timed (fun () -> Mavr_sim.Scenario.run s ~ms:(float_of_int spec.ms)) in
        let (), warm = timed (fun () -> Mavr_sim.Scenario.run s ~ms:(float_of_int spec.ms)) in
        (create_s, cold, warm))
  in
  put "scenario.create_ms" (ms (List.map (fun (c, _, _) -> c) rigs));
  put "scenario.cold_ms_per_sim_s" (ms (List.map (fun (_, c, _) -> c) rigs) /. sim_s);
  put "scenario.warm_ms_per_sim_s" (ms (List.map (fun (_, _, w) -> w) rigs) /. sim_s)

let grid spec =
  let profile = firmware_profile spec.profile in
  let faults =
    match Mavr_fault.Profile.of_string spec.faults with Ok p -> p | Error e -> fail "%s" e
  in
  let clock = host_clock ~jobs:spec.jobs in
  let setup () =
    setup_once clock (fun () ->
        let b, build_s = timed (fun () -> F.Build.build profile F.Profile.mavr) in
        ignore (Mavr_core.Rop.observe (Mavr_core.Rop.analyze b));
        Pool.shutdown (Pool.create ~jobs:spec.jobs ());
        (b, build_s))
  in
  let build = List.hd (List.rev (List.init spec.setup_reps (fun _ -> setup ()))) in
  let tasks = tasks_of spec faults in
  let seed i = spec.batch_seeds.(i mod Array.length spec.batch_seeds) in
  Pool.with_pool ~jobs:spec.jobs (fun pool ->
      (* The first campaign in a process runs slow (heap growth, domain
         start-up); it is excluded from every figure.  It is traced, and
         its document is the reference batch 0 must reproduce untraced. *)
      let reference = run_batch spec ~pool ~faults ~tracer:(Clock.tracer ()) build (seed 0) in
      let reference_doc = if spec.plant_digest then reference.doc ^ " " else reference.doc in
      let check (b : batch) ~against =
        let bad = check_batch ~tasks b.result in
        op ~n:tasks ~bad:(if b.doc <> against then tasks else bad)
      in
      (* Pool and GC figures cover the untraced batches only. *)
      let busy = Array.make spec.jobs 0.0 and untraced_s = ref 0.0 in
      let majors = ref 0 and minor_words = ref 0.0 in
      let untraced i =
        let before = clock.last in
        let s0 = Pool.stats pool and g0 = Gc.quick_stat () in
        let b = run_batch spec ~pool ~faults build (seed i) in
        let s1 = Pool.stats pool and g1 = Gc.quick_stat () in
        let ref_s = to_reference clock ~before b.wall_s in
        Array.iteri (fun d (s : Pool.domain_stats) -> busy.(d) <- busy.(d) +. s.busy_s -. s0.(d).busy_s) s1;
        untraced_s := !untraced_s +. b.wall_s;
        majors := !majors + g1.major_collections - g0.major_collections;
        minor_words := !minor_words +. g1.minor_words -. g0.minor_words;
        check b ~against:(if i = 0 then reference_doc else b.doc);
        Printf.eprintf "batch %d wall %.4f cpu %.4f reference %.4f probe %.4f\n%!" i b.wall_s
          b.cpu_s ref_s clock.last;
        ignore (setup ());
        (b, ref_s)
      in
      if not spec.trace then begin
        (* Throughput over all timed batches, not a median batch: the
           host's speed drifts in phases of seconds, and the total
           averages over them where a median would pick one. *)
        let done_ = ref 0 and ref_total = ref 0.0 in
        let (_ : float list) =
          timed_loop ~budget_s:spec.seconds ~min:3 ~max:(Array.length spec.batch_seeds) (fun i ->
              let b, ref_s = untraced i in
              done_ := !done_ + flights b.result;
              ref_total := !ref_total +. ref_s;
              b.wall_s)
        in
        put "ops_per_s" (float_of_int !done_ /. !ref_total)
      end
      else begin
        (* Each seed runs untraced and traced back to back, so the pair
           sees the same host conditions; which goes first alternates,
           because the second run of a seed finds the heap already grown.
           The traced document must be byte-identical to the untraced. *)
        let pairs = ref [] in
        let (_ : float list) =
          timed_loop ~budget_s:spec.seconds ~min:4 ~max:(Array.length spec.batch_seeds) (fun i ->
              let tracer = Clock.tracer () in
              let traced () = run_batch spec ~pool ~faults ~tracer build (seed i) in
              let b, t =
                if i mod 2 = 0 then
                  let b, _ = untraced i in
                  (b, traced ())
                else
                  let t = traced () in
                  (fst (untraced i), t)
              in
              check t ~against:b.doc;
              pairs := (b, t, span_durations tracer) :: !pairs;
              b.wall_s +. t.wall_s)
        in
        let pairs = List.rev !pairs in
        let n = float_of_int (List.length pairs) in
        put "trace.overhead" (median (List.map (fun (b, t, _) -> t.wall_s /. b.wall_s) pairs) -. 1.0);
        let all name = List.concat_map (fun (_, _, d) -> d name) pairs in
        let trial = sum (all "trial") in
        let share name = sum (all name) /. trial in
        let shares = share "boot" +. share "warmup" +. share "flight" in
        if abs_float (1.0 -. shares) > share_tolerance then begin
          (* Counted as one more failed operation: the trace does not
             account for the trials it claims to cover. *)
          Printf.eprintf "bench: phase shares sum to %.4f of trial time\n" shares;
          op ~n:1 ~bad:1
        end;
        put "montecarlo.trial_ms.p50" (1000.0 *. median (all "trial"));
        put "montecarlo.trial_ms.p95" (1000.0 *. percentile 0.95 (all "trial"));
        put "montecarlo.boot_share" (share "boot");
        put "montecarlo.warmup_share" (share "warmup");
        put "montecarlo.flight_share" (share "flight");
        let insns = sum (List.map (fun (_, t, _) -> registry_int t.result "app.insn.total") pairs) in
        put "cpu.insn_per_s" (insns /. (sum (all "warmup") +. sum (all "flight")));
        put "join.to_json_ms" (1000.0 *. median (List.map (fun (b, _, _) -> b.join_s) pairs));
        (* Counts and rates of batch 0: deterministic for the seed. *)
        let b0, _, _ = List.hd pairs in
        let r = b0.result in
        List.iter
          (fun (name, key) -> put name (registry_int r key))
          [
            ("cpu.insns", "app.insn.total"); ("cpu.cycles", "app.cycles");
            ("master.reflashes", "master.reflashes");
            ("master.pages_programmed", "master.pages_programmed");
            ("fault.uplink.bits_flipped", "fault.uplink.bits_flipped");
            ("fault.downlink.bits_flipped", "fault.downlink.bits_flipped");
            ("fault.seu.flash_flips", "fault.seu.flash_flips");
            ("fault.seu.sram_flips", "fault.seu.sram_flips");
            ("fault.reflash.pages_corrupted", "fault.reflash.pages_corrupted");
            ("fault.reflash.retries", "fault.reflash.retries");
            ("gcs.link.crc_errors", "gcs.link.crc_errors");
            ("gcs.link.frames_ok", "gcs.link.frames_ok"); ("gcs.alarms", "gcs.alarms");
          ];
        let det, fa = outcome_rates r in
        put "detection_rate" det;
        put "false_alarm_rate" fa;
        put "join.document_bytes" (float_of_int (String.length b0.doc));
        Array.iteri
          (fun d busy ->
            put (Printf.sprintf "pool.d%d.busy_s" d) (busy /. n);
            put (Printf.sprintf "pool.d%d.idle_s" d) (Float.max 0.0 (!untraced_s -. busy) /. n))
          busy;
        put "pool.tasks" (float_of_int tasks);
        let top = words_mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words) in
        put "gc.top_heap_mb" top;
        put "gc.heap_mb_per_task" (top /. float_of_int tasks);
        put "gc.major_collections" (float_of_int !majors /. n);
        put "gc.minor_mb" (words_mb !minor_words /. n);
        time_layers spec build
      end);
  report_setup ()

(* ---- analysis workload ------------------------------------------------ *)

type pass = {
  times : (string * float) list;  (* per-call wall seconds *)
  ref_s : float;  (* the whole pass, in reference seconds *)
  counts : (string * float) list;
  bad : int;
}

(* Every call is timed, with a host-speed probe after it: a pass runs for
   seconds, long enough for the host's speed to change inside it. *)
let analysis_pass clock image layouts census_layouts census_seed =
  let times = ref [] and ref_s = ref 0.0 in
  let call name f =
    let r, wall, rs = ref_timed clock f in
    times := (name, wall) :: !times;
    ref_s := !ref_s +. rs;
    r
  in
  let cfg = call "cfg.recover_ms" (fun () -> A.Cfg.recover image) in
  let sd = call "stackdepth.analyze_ms" (fun () -> A.Stackdepth.analyze cfg) in
  let taint = call "taint.analyze_ms" (fun () -> A.Taint.analyze cfg) in
  let equiv =
    Array.map
      (fun r -> call "equiv.validate_ms" (fun () -> A.Equiv.validate ~original:image ~randomized:r))
      layouts
  in
  let census =
    call "survival.census_ms" (fun () ->
        A.Survival.census ~seed:(A.Survival.Root census_seed) ~layouts:census_layouts image)
  in
  let bound = match sd.A.Stackdepth.image_bound with A.Stackdepth.Finite n -> Some n | _ -> None in
  let accepted = Array.fold_left (fun a r -> if Result.is_ok r then a + 1 else a) 0 equiv in
  (* Correct outputs: taint reports the §IV PARAM_SET copy (the firmware
     is built vulnerable on purpose), the stack bound is finite, and
     every randomized layout is proven equivalent. *)
  let finds_copy = List.exists (fun f -> f.A.Taint.fn = "handle_param_set") taint.A.Taint.findings in
  let bad =
    (if finds_copy then 0 else 1)
    + (if bound = None then 1 else 0)
    + (Array.length layouts - accepted)
  in
  {
    times = !times;
    ref_s = !ref_s;
    counts =
      [
        ("cfg.reachable_insns", float_of_int (A.Cfg.stats cfg).A.Cfg.reachable_insns);
        ("taint.findings", float_of_int (List.length taint.A.Taint.findings));
        ("stackdepth.bound_bytes", float_of_int (Option.value ~default:(-1) bound));
        ("equiv.layouts_accepted", float_of_int accepted);
        ("survival.feasible_layouts", float_of_int census.A.Survival.feasible_layouts);
      ];
    bad;
  }

let analyze spec =
  let profile = firmware_profile spec.profile in
  let clock = host_clock ~jobs:1 in
  let setup () =
    setup_once clock (fun () ->
        let b, build_s = timed (fun () -> F.Build.build profile F.Profile.mavr) in
        let image = b.F.Build.image in
        let layouts = Array.map (fun seed -> Mavr_core.Randomize.randomize ~seed image) spec.layout_seeds in
        ((image, layouts), build_s))
  in
  let setup_reps () = List.hd (List.rev (List.init spec.setup_reps (fun _ -> setup ()))) in
  let image, layouts = setup_reps () in
  (* One op is one analysis pass; it fails when any output check does,
     or when its counts differ from the first pass's. *)
  let passes = ref [] in
  let (_ : float list) =
    timed_loop ~budget_s:spec.seconds ~min:1 ~max:8 (fun i ->
        Gc.full_major ();
        let p, wall =
          timed (fun () -> analysis_pass clock image layouts spec.census_layouts spec.census_seed)
        in
        let drift = match !passes with [] -> false | first :: _ -> first.counts <> p.counts in
        op ~n:1 ~bad:(if p.bad > 0 || drift then 1 else 0);
        Printf.eprintf "pass %d wall %.4f reference %.4f probe %.4f\n%!" i wall p.ref_s clock.last;
        passes := !passes @ [ p ];
        ignore (setup_reps ());
        wall)
  in
  let passes = !passes in
  put "ops_per_s" (float_of_int (List.length passes) /. sum (List.map (fun p -> p.ref_s) passes));
  if spec.trace then begin
    (* The per-call clocks run in every pass; there is no separate
       tracing cost to measure. *)
    put "trace.overhead" 0.0;
    List.iter
      (fun name ->
        put name
          (1000.0
          *. median (List.concat_map (fun p -> List.filter_map (fun (n, t) -> if n = name then Some t else None) p.times) passes)))
      [ "cfg.recover_ms"; "stackdepth.analyze_ms"; "taint.analyze_ms"; "equiv.validate_ms"; "survival.census_ms" ];
    List.iter (fun (n, v) -> put n v) (List.hd passes).counts
  end;
  report_setup ()

(* ---- main ------------------------------------------------------------- *)

let () =
  let spec =
    match J.of_string (In_channel.input_all stdin) with
    | Ok j -> spec_of_json j
    | Error e -> fail "spec does not parse: %s" e
  in
  (match spec.kind with Grid -> grid spec | Analyze -> analyze spec);
  put "peak_rss_mb" (peak_rss_mb ());
  put "error_rate" (float_of_int !failed /. float_of_int (max 1 !attempted));
  let end_to_end = [ "ops_per_s"; "setup_s"; "peak_rss_mb" ] in
  if spec.trace then
    List.iter (fun n -> if not (List.mem_assoc n !metrics) then put n 0.0) one_kind_layer_names;
  let chosen =
    List.filter
      (fun (n, _) -> if spec.trace then not (List.mem n end_to_end) else List.mem n end_to_end)
      (List.rev !metrics)
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (!failed = 0));
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("metrics", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) chosen));
          ]))
