module Source = struct
  type t = {
    stream_id : int;
    total : int;
    mutable sent : int;
    mutable next_seq : int;
  }

  let create ?(start_byte = 0) ~stream_id ~bytes () =
    if bytes <= 0 then invalid_arg "Stream.Source.create: bytes must be positive";
    if start_byte < 0 || start_byte >= bytes then
      invalid_arg "Stream.Source.create: start_byte out of range";
    if start_byte mod Cell.payload_capacity <> 0 then
      invalid_arg "Stream.Source.create: start_byte must be cell-aligned";
    { stream_id; total = bytes; sent = start_byte;
      next_seq = start_byte / Cell.payload_capacity }

  let remaining t = t.total - t.sent

  let cell_count t =
    (t.total + Cell.payload_capacity - 1) / Cell.payload_capacity

  let next_seq t = t.next_seq

  let take_cell t circuit ~layers =
    let rem = remaining t in
    if rem = 0 then invalid_arg "Stream.Source.take_cell: source drained";
    let length = Stdlib.min rem Cell.payload_capacity in
    let last = length = rem in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.sent <- t.sent + length;
    Cell.data circuit ~layers ~stream_id:t.stream_id ~seq ~length ~last
end

module Sink = struct
  type t = {
    expected : int;
    (* Payload length of each delivered cell, indexed by seq; 0 = not
       yet seen (a data cell carries at least one byte).  Sized by the
       stream's cell count, so delivering allocates nothing. *)
    seen : int array;
    mutable received : int;
    mutable cells : int;
    mutable duplicates : int;
    (* The contiguous delivered prefix: every cell up to (excluding)
       [next_contig] has arrived, accounting for [contig_bytes] bytes.
       This is what a resumed transfer can safely skip. *)
    mutable next_contig : int;
    mutable contig_bytes : int;
    mutable completed_at : Engine.Time.t option;
  }

  let create ?(start_byte = 0) ~expected_bytes () =
    if expected_bytes <= 0 then
      invalid_arg "Stream.Sink.create: expected_bytes must be positive";
    if start_byte < 0 || start_byte >= expected_bytes then
      invalid_arg "Stream.Sink.create: start_byte out of range";
    if start_byte mod Cell.payload_capacity <> 0 then
      invalid_arg "Stream.Sink.create: start_byte must be cell-aligned";
    let cells = (expected_bytes + Cell.payload_capacity - 1) / Cell.payload_capacity in
    { expected = expected_bytes; seen = Array.make cells 0; received = start_byte;
      cells = 0; duplicates = 0; next_contig = start_byte / Cell.payload_capacity;
      contig_bytes = start_byte; completed_at = None }

  let advance_contig t =
    while t.next_contig < Array.length t.seen && t.seen.(t.next_contig) > 0 do
      t.contig_bytes <- t.contig_bytes + t.seen.(t.next_contig);
      t.next_contig <- t.next_contig + 1
    done

  let deliver t ~now = function
    | Cell.Relay_data { seq; length; _ } ->
        if seq < 0 || seq >= Array.length t.seen then
          invalid_arg "Stream.Sink.deliver: seq out of range";
        if t.seen.(seq) > 0 then t.duplicates <- t.duplicates + 1
        else begin
          t.seen.(seq) <- length;
          t.received <- t.received + length;
          t.cells <- t.cells + 1;
          if seq = t.next_contig then advance_contig t;
          if t.received >= t.expected && t.completed_at = None then
            t.completed_at <- Some now
        end
    | Cell.Relay_sendme _ | Cell.Relay_end _ -> ()

  let received_bytes t = t.received
  let cells_received t = t.cells
  let duplicates t = t.duplicates
  let delivered_bytes t = t.contig_bytes
  let complete t = t.received >= t.expected
  let completed_at t = t.completed_at
end
