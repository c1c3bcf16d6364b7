(* Decode-store exactness: every instruction the CPU executes — single-
   stepped or retired from a fused superblock — must be the decode of
   the flash as it is at that moment ([Decode.decode] of live flash is
   the oracle), on the real firmware images and across reflash
   lifetimes, and the store must never survive a reflash or a
   bootloader page write (the per-lifetime re-randomization path). *)

module Cpu = Mavr_avr.Cpu
module Memory = Mavr_avr.Memory
module Opcode = Mavr_avr.Opcode
module Isa = Mavr_avr.Isa
module Device = Mavr_avr.Device
module Image = Mavr_obj.Image
module F = Mavr_firmware

let prog insns = String.concat "" (List.map Opcode.encode_bytes insns)

let boot ~superblocks (image : Image.t) =
  let cpu = Cpu.create () in
  Cpu.set_superblocks cpu superblocks;
  Cpu.load_program cpu image.Image.code;
  (cpu, Helpers.attach_decode_oracle cpu)

(* Rewrite flash page by page, the way a bootloader streams an image. *)
let program_pages cpu code =
  let page = (Cpu.device cpu).Device.flash_page_bytes in
  let padded = (String.length code + page - 1) / page * page in
  let code = code ^ String.make (padded - String.length code) '\xff' in
  for p = 0 to (padded / page) - 1 do
    Memory.flash_write_page (Cpu.mem cpu) ~page_addr:(p * page) (String.sub code (p * page) page)
  done

let test_firmware_profiles_identical () =
  (* Run each toolchain variant of the tiny profile for a full firmware
     slice (boot, MAVLink traffic, telemetry) under both engines. *)
  List.iter
    (fun (name, build) ->
      let b : F.Build.t = build () in
      let frame =
        Mavr_mavlink.Frame.encode
          { Mavr_mavlink.Frame.seq = 1; sysid = 255; compid = 0; msgid = 76; payload = "go" }
      in
      List.iter
        (fun superblocks ->
          let cpu, oracle = boot ~superblocks b.F.Build.image in
          Cpu.uart_send cpu frame;
          ignore (Cpu.run_until_halt cpu ~max_cycles:400_000);
          Helpers.check_decode_oracle
            (Printf.sprintf "%s (superblocks %b)" name superblocks)
            oracle)
        [ true; false ])
    [
      ("mavr", Helpers.build_mavr);
      ("stock", Helpers.build_stock);
      ("patched", Helpers.build_patched);
    ]

let test_identical_across_reflash_lifetimes () =
  (* Drive one CPU through randomized reflash lifetimes: every generation
     is a different image at the flash epoch cadence the MAVR master
     produces, alternating whole-image loads with bootloader page
     streams, so any decode or fused block served after a reflash
     disagrees with live flash. *)
  let b = Helpers.build_mavr () in
  let cpu, oracle = boot ~superblocks:true b.F.Build.image in
  ignore (Cpu.run_until_halt cpu ~max_cycles:150_000);
  for generation = 1 to 4 do
    let r = Mavr_core.Randomize.randomize ~seed:(generation * 31) b.F.Build.image in
    if generation mod 2 = 0 then Cpu.load_program cpu r.Image.code
    else begin
      program_pages cpu r.Image.code;
      Cpu.reset cpu
    end;
    ignore (Cpu.run_until_halt cpu ~max_cycles:150_000)
  done;
  Helpers.check_decode_oracle "reflash lifetimes" oracle

let test_cache_invalidated_on_load_program () =
  (* Same CPU, two programs: after a reflash the CPU must execute the
     new code, not stale decodes of the old. *)
  let cpu = Cpu.create () in
  Cpu.load_program cpu (prog Isa.[ Ldi (16, 0x11); Break ]);
  ignore (Cpu.run cpu ~max_cycles:100);
  Alcotest.(check int) "first program ran" 0x11 (Cpu.reg cpu 16);
  Cpu.load_program cpu (prog Isa.[ Ldi (16, 0x22); Break ]);
  ignore (Cpu.run cpu ~max_cycles:100);
  Alcotest.(check int) "reflash executes new code" 0x22 (Cpu.reg cpu 16)

let test_cache_invalidated_on_flash_page_write () =
  (* A bootloader-style page write must also bump the flash epoch and
     drop stored decodes. *)
  let cpu = Cpu.create () in
  let page = (Cpu.device cpu).Device.flash_page_bytes in
  let pad code = code ^ String.make (page - String.length code) '\xff' in
  Cpu.load_program cpu (pad (prog Isa.[ Ldi (16, 0x11); Break ]));
  ignore (Cpu.run cpu ~max_cycles:100);
  Alcotest.(check int) "first program ran" 0x11 (Cpu.reg cpu 16);
  Memory.flash_write_page (Cpu.mem cpu) ~page_addr:0
    (pad (prog Isa.[ Ldi (16, 0x33); Break ]));
  Cpu.reset cpu;
  ignore (Cpu.run cpu ~max_cycles:100);
  Alcotest.(check int) "page write executes new code" 0x33 (Cpu.reg cpu 16)

let test_mid_run_page_write () =
  (* A page write while the CPU sits in a compiled loop, with no reset:
     the next run must execute the rewritten words at the current PC,
     not the fused loop. *)
  List.iter
    (fun superblocks ->
      let cpu = Cpu.create () in
      Cpu.set_superblocks cpu superblocks;
      let page = (Cpu.device cpu).Device.flash_page_bytes in
      let pad code = code ^ String.make (page - String.length code) '\xff' in
      Cpu.load_program cpu (pad (prog Isa.[ Ldi (16, 0x11); Rjmp (-1) ]));
      let oracle = Helpers.attach_decode_oracle cpu in
      Alcotest.(check bool) "spins in the loop" true (Cpu.run cpu ~max_cycles:500 = `Budget_exhausted);
      Memory.flash_write_page (Cpu.mem cpu) ~page_addr:0
        (pad (prog Isa.[ Ldi (16, 0x11); Ldi (17, 0x22); Break ]));
      Alcotest.(check bool) "leaves the loop" true (Cpu.run cpu ~max_cycles:500 = `Halted Cpu.Break_hit);
      Alcotest.(check int) "rewritten word executed" 0x22 (Cpu.reg cpu 17);
      Helpers.check_decode_oracle (Printf.sprintf "superblocks %b" superblocks) oracle)
    [ true; false ]

let () =
  Alcotest.run "decode-cache"
    [
      ( "equivalence",
        [
          Alcotest.test_case "firmware profiles identical" `Quick
            test_firmware_profiles_identical;
          Alcotest.test_case "identical across reflash lifetimes" `Quick
            test_identical_across_reflash_lifetimes;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "load_program invalidates" `Quick
            test_cache_invalidated_on_load_program;
          Alcotest.test_case "flash page write invalidates" `Quick
            test_cache_invalidated_on_flash_page_write;
          Alcotest.test_case "mid-run page write" `Quick test_mid_run_page_write;
        ] );
    ]
