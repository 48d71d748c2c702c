package wire

import "ndpipe/internal/telemetry"

// Protocol instrumentation: every codec in the process shares one set of
// per-MsgType message counters, byte counters and rejected-frame counters,
// registered once in the telemetry default registry. The hot path (Send and
// Recv) only touches pre-registered atomic counters — no lookups, no
// allocation.
var (
	sentMsgs       [lastMsgType + 1]*telemetry.Counter
	recvMsgs       [lastMsgType + 1]*telemetry.Counter
	sentBytes      = telemetry.Default.Counter("wire_sent_bytes_total")
	recvBytes      = telemetry.Default.Counter("wire_recv_bytes_total")
	oversizeFrames = telemetry.Default.Counter("wire_oversize_frames_total")
	checksumErrors = telemetry.Default.Counter("wire_checksum_errors_total")
)

func init() {
	for t := MsgHello; t <= lastMsgType; t++ {
		sentMsgs[t] = telemetry.Default.Counter(telemetry.Labeled("wire_send_total", "type", t.String()))
		recvMsgs[t] = telemetry.Default.Counter(telemetry.Labeled("wire_recv_total", "type", t.String()))
	}
}

func countSent(t MsgType) {
	if t >= MsgHello && t <= lastMsgType {
		sentMsgs[t].Inc()
	}
}

func countRecv(t MsgType) {
	if t >= MsgHello && t <= lastMsgType {
		recvMsgs[t].Inc()
	}
}
