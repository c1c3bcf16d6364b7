(* Campaign memory: a finished trial's rig (CPU, flash, decode store,
   compiled blocks) must not stay reachable until the campaign join.
   Each trial hands the join a frozen metrics registry whose cells own
   their values, so the major heap stays flat as trials accumulate.  The
   case runs alone in its own executable, so [Gc.top_heap_words]
   reflects this campaign only. *)

module Request = Mavr_sim.Request

(* Tiny-100, 200 ms flights, 8 trials per cell on one domain: about
   14 MB of peak heap when finished rigs are collectable, about 300 MB
   when every trial's registry keeps its rig alive. *)
let bound_mb = 64.

let test_top_heap_bounded () =
  match Request.run ~jobs:1 { Request.default with trials = 8; ms = 200 } with
  | Error m -> Alcotest.fail m
  | Ok o ->
      Alcotest.(check bool) "every cell flew 8 trials" true
        (Array.for_all
           (fun (c : Mavr_sim.Montecarlo.cell) -> c.trials = 8)
           o.grid.Mavr_sim.Montecarlo.levels.(0).cells);
      let top_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.
      in
      if top_mb > bound_mb then
        Alcotest.failf "top heap %.0f MB above the %.0f MB bound" top_mb bound_mb

let () =
  Alcotest.run "campaign-memory"
    [ ("heap", [ Alcotest.test_case "finished rigs collectable" `Quick test_top_heap_bounded ]) ]
