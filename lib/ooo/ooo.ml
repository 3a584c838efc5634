(* The out-of-order core's entry point under its own library name: the
   perfbench batch driver links [Impact_ooo.Ooo.run] to time the OOO core
   as its own layer. The model itself lives in lib/sim as [Sim.Ooo],
   beside the in-order core it shares its set-up, instruction step and
   slot ledger with; [Sim.run] and [Sim.run_profiled] reach it through
   the machine's core. See sim.mli for its documentation. *)

include Impact_sim.Sim.Ooo
