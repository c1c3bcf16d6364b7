(** One campaign request: the spec, codec, runner and shard handler
    shared by [mavr campaign], [mavr serve] and [mavr dispatch].

    The paper's §VII evaluation (every attack against every defense
    posture, over randomized layouts) is one campaign document.  All
    three entry points produce it from a {!t}: [campaign] builds one
    from its flags, [serve] decodes one with {!of_json}, and [dispatch]
    encodes one per worker with {!to_json}.  The defaults live in
    {!default} and nowhere else, and the same {!validate} runs on every
    path, so the three cannot drift.

    Wire schema (one JSON object; unknown fields are ignored, a known
    field with the wrong type is an error):
    {v
    profile     string   "tiny-100"  arduplane | arducopter | ardurover | N | tiny-N  (N >= 1)
    trials      int      5           >= 0  (>= 1 with a shard)
    ms          int      900         >= 0
    layouts     int      10          >= 0
    seed        int      0
    faults      string   "none"      a Mavr_fault.Profile name
    early_stop  object   absent      {target_halfwidth (required, 0 < W < 1),
                                      z > 0, min_trials >= 1, batch >= 1}
    shard       object   absent      {lo, hi}: 0 <= lo <= hi <= tasks,
                                      both multiples of trials
    v} *)

module Json := Mavr_telemetry.Json

type t = {
  profile : Mavr_firmware.Profile.t;
  trials : int;  (** Monte Carlo trials per grid cell *)
  ms : int;  (** simulated milliseconds per trial *)
  layouts : int;  (** layouts in the survival census *)
  seed : int;  (** campaign root seed *)
  faults : Mavr_fault.Profile.t;
  early_stop : Mavr_campaign.Early_stop.t option;
  shard : Mavr_campaign.Dispatch.shard option;
      (** run only this grid range and stream its checkpoint entries *)
}

(** tiny-100, 5 trials, 900 ms, 10 layouts, seed 0, no faults, no early
    stopping, no shard. *)
val default : t

(** ["arduplane"], ["arducopter"], ["ardurover"] (any case, so the
    canonical ["Arduplane"] is accepted), a filler count ["60"] or its
    canonical name ["tiny-60"].  Tiny profiles use code seed 2024, so
    every profile name round-trips. *)
val profile_of_string : string -> (Mavr_firmware.Profile.t, string) result

(** Range checks of the schema above. *)
val validate : t -> (t, string) result

val to_json : t -> Json.t

(** Decode and {!validate}; absent fields take {!default}'s values. *)
val of_json : Json.t -> (t, string) result

(** {!Montecarlo.checkpoint_spec} of this request ([traced] defaults to
    false); the shard does not enter the hash. *)
val checkpoint_spec : ?traced:bool -> t -> Mavr_campaign.Checkpoint.spec

type outcome = {
  census : Mavr_analysis.Survival.t;
  grid : Montecarlo.t;
  pool : Mavr_campaign.Pool.domain_stats array;  (** per-domain totals at the end *)
  span : Mavr_campaign.Clock.span;  (** census + grid *)
}

(** [run ?jobs ?tracer ?progress ?checkpoint r] — the whole campaign
    (whatever [r.shard] says): build the firmware, then the census and
    the grid on one pool.  With [tracer] the census and grid phases are
    spans on a ["campaign"] lane.  With [progress] every heartbeat
    carries per-domain pool counters and a final line is emitted at
    the end.  [Error] is a corrupt [checkpoint] entry. *)
val run :
  ?jobs:int ->
  ?tracer:Mavr_telemetry.Span.tracer ->
  ?progress:Mavr_campaign.Progress.t ->
  ?checkpoint:Mavr_campaign.Checkpoint.t ->
  t ->
  (outcome, string) result

(** The campaign document's fields: profile, seed, census, grid — plus,
    with [timing], the wall/cpu span, job count and pool utilization
    (off by default so the document is byte-identical for any job
    count). *)
val document : ?timing:bool -> t -> outcome -> (string * Json.t) list

(** 1 if a randomized layout kept the prebuilt payload feasible or a
    MAVR-defended trial was taken over, else 0. *)
val exit_status : outcome -> int

(** [run_shard ?jobs r shard ~send] executes the grid tasks in [shard]
    (a range {!validate} accepts) and streams, through [send], the checkpoint header and entries
    interleaved with progress heartbeats (one lock serializes the
    lines).  Returns the terminal [{"shard","entries"}] object. *)
val run_shard :
  ?jobs:int -> t -> Mavr_campaign.Dispatch.shard -> send:(string -> unit) -> Json.t

(** [merge ?jobs r entries] — prime a fresh checkpoint with every
    shard's entries and {!run} over it: no trial executes, and the
    outcome is the single-host one. *)
val merge : ?jobs:int -> t -> (int * Mavr_campaign.Checkpoint.entry) list -> (outcome, string) result

(** The [serve] handler: {!of_json}, then {!run_shard} when the request
    names a shard, else {!run} with a heartbeat stream and the
    {!document} as result.  A malformed request is an [Error] before
    any heartbeat. *)
val handler : ?jobs:int -> Mavr_campaign.Service.handler
