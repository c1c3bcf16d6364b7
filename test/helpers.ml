(* Shared fixtures for the test suites.  Firmware builds are cached so
   the many suites that need an image do not re-run code generation. *)

module Cpu = Mavr_avr.Cpu
module Io = Mavr_avr.Device.Io
module Image = Mavr_obj.Image

let tiny_profile = Mavr_firmware.Profile.tiny ~n:120 ~seed:99

let tiny_mavr =
  lazy (Mavr_firmware.Build.build tiny_profile Mavr_firmware.Profile.mavr)

let tiny_stock =
  lazy (Mavr_firmware.Build.build tiny_profile Mavr_firmware.Profile.stock)

let tiny_patched =
  lazy (Mavr_firmware.Build.build tiny_profile Mavr_firmware.Profile.patched)

let build_mavr () = Lazy.force tiny_mavr
let build_stock () = Lazy.force tiny_stock
let build_patched () = Lazy.force tiny_patched

(* Boot an image and run past startup. *)
let boot ?(gyro = 0x1234) (image : Image.t) =
  let cpu = Cpu.create () in
  Cpu.load_program cpu image.code;
  Cpu.io_poke cpu Io.gyro_lo (gyro land 0xFF);
  Cpu.io_poke cpu Io.gyro_hi ((gyro lsr 8) land 0xFF);
  ignore (Cpu.run cpu ~max_cycles:60_000);
  cpu

let attack_target () =
  let b = build_mavr () in
  let ti = Mavr_core.Rop.analyze b in
  let obs = Mavr_core.Rop.observe ti in
  (b, ti, obs)

let assert_ok = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "expected Ok, got Error %S" m

let run_result_to_string = function
  | `Halted h -> Format.asprintf "halt(%a)" Cpu.pp_halt h
  | `Budget_exhausted -> "running"

(* Collect parsed telemetry after running for a cycle budget. *)
let telemetry cpu ~cycles =
  ignore (Cpu.uart_take_tx cpu);
  let r = Cpu.run cpu ~max_cycles:cycles in
  let parser = Mavr_mavlink.Parser.create () in
  let frames = Mavr_mavlink.Parser.feed parser (Cpu.uart_take_tx cpu) in
  (r, frames, Mavr_mavlink.Parser.stats parser)

(* Decode-store oracle: installs a block tap that checks every executed
   instruction — each single-stepped [on_step] insn and each retired
   [bi_insns.(i)] of a fused block — against [Decode.decode] of the flash
   as it is at execution time.  A decode or compiled block that survived
   a reflash or page write counts as [stale]; [checked] counts the
   instructions compared, so a vacuous run can be told apart. *)
type decode_oracle = { mutable checked : int; mutable stale : int; mutable first : string }

let attach_decode_oracle cpu =
  let o = { checked = 0; stale = 0; first = "" } in
  let flash pc = Mavr_avr.Memory.flash_word (Cpu.mem cpu) pc in
  let check pc insn =
    o.checked <- o.checked + 1;
    let live, _ = Mavr_avr.Decode.decode (flash pc) (flash (pc + 1)) in
    if insn <> live then begin
      if o.stale = 0 then
        o.first <-
          Format.asprintf "word 0x%x ran %a, flash holds %a" pc Mavr_avr.Isa.pp insn
            Mavr_avr.Isa.pp live;
      o.stale <- o.stale + 1
    end
  in
  Cpu.set_block_tap cpu
    ~on_block:(fun info count ->
      for i = 0 to count - 1 do
        check info.Cpu.bi_pcs.(i) info.Cpu.bi_insns.(i)
      done)
    ~on_step:check;
  o

let decode_oracle_clean o = o.checked > 0 && o.stale = 0

let check_decode_oracle name o =
  Alcotest.(check bool) (name ^ ": instructions checked") true (o.checked > 0);
  if o.stale > 0 then Alcotest.failf "%s: %d stale decodes, first: %s" name o.stale o.first

let qtest = QCheck_alcotest.to_alcotest
