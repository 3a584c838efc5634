(* The JSON printer and parser under the service library's name: the
   perfbench serve driver links [Impact_svc.Json]. The module itself
   lives in lib/obs as [Impact_obs.Json], the leaf library that the trace
   writer, the oracle and the bench harness print through too. See
   lib/obs/json.mli for its documentation. *)

include Impact_obs.Json
