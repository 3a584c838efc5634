module Wake = struct
  type t = { r : Unix.file_descr; w : Unix.file_descr }

  let create () =
    let r, w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock r;
    Unix.set_nonblock w;
    { r; w }

  let ring t = try ignore (Unix.write t.w (Bytes.make 1 '!') 0 1) with _ -> ()

  let fd t = t.r

  let drain t =
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read t.r buf 0 64 with
      | 0 -> ()
      | _ -> go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> ()
    in
    go ()

  let close t =
    (try Unix.close t.r with _ -> ());
    try Unix.close t.w with _ -> ()
end

module Outq = struct
  type seg = {
    sg_bytes : Bytes.t;
    mutable sg_off : int;
    sg_on_flush : (wrote:bool -> unit) option;
  }

  type t = seg Queue.t

  let create () : t = Queue.create ()

  let push (t : t) ?on_flush s =
    Queue.add { sg_bytes = Bytes.of_string s; sg_off = 0; sg_on_flush = on_flush } t

  let is_empty (t : t) = Queue.is_empty t

  let fire seg ~wrote =
    match seg.sg_on_flush with None -> () | Some f -> f ~wrote

  let abort (t : t) =
    while not (Queue.is_empty t) do
      fire (Queue.pop t) ~wrote:false
    done

  let flush (t : t) fd =
    let rec go () =
      if Queue.is_empty t then `Drained
      else begin
        let seg = Queue.peek t in
        let len = Bytes.length seg.sg_bytes - seg.sg_off in
        match Unix.write fd seg.sg_bytes seg.sg_off len with
        | k ->
          seg.sg_off <- seg.sg_off + k;
          if seg.sg_off >= Bytes.length seg.sg_bytes then begin
            ignore (Queue.pop t);
            fire seg ~wrote:true
          end;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Blocked
        | exception Unix.Unix_error (_, _, _) ->
          abort t;
          `Error
      end
    in
    go ()
end
