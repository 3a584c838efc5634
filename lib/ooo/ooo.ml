(* The out-of-order core, under its own library name. The model itself
   lives in lib/sim as [Sim.Ooo], beside the in-order core it shares
   its set-up and instruction step with; see sim.mli for its
   documentation. *)

include Impact_sim.Sim.Ooo
