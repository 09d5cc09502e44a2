package pgwire

import "repro/internal/telemetry"

// Metrics bundles the proxy's telemetry instruments. All families live in
// the cqms_proxy_* namespace on whatever registry the embedder passes in, so
// a cqms-proxy process exposes them next to the embedded system's own
// families on one /v1/metrics endpoint.
type Metrics struct {
	ConnectionsActive *telemetry.Gauge
	ConnectionsTotal  *telemetry.Counter
	DialErrors        *telemetry.Counter
	HandshakeErrors   *telemetry.Counter

	// MessagesDecoded counts client-stream messages by decoded type
	// (query, parse, bind, execute, close, other).
	messagesDecoded *telemetry.CounterVec
	msgQuery        *telemetry.Counter
	msgParse        *telemetry.Counter
	msgBind         *telemetry.Counter
	msgExecute      *telemetry.Counter
	msgClose        *telemetry.Counter
	msgOther        *telemetry.Counter

	StatementsCaptured *telemetry.Counter
	StatementsDropped  *telemetry.Counter
	SubmitErrors       *telemetry.Counter
	SubmitLatency      *telemetry.Histogram

	// SpliceBytes counts payload bytes relayed, labelled by direction:
	// frontend (client → backend) and backend (backend → client).
	spliceBytes   *telemetry.CounterVec
	BytesFrontend *telemetry.Counter
	BytesBackend  *telemetry.Counter
}

// NewMetrics registers (or re-resolves) the cqms_proxy_* families on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		ConnectionsActive: reg.Gauge("cqms_proxy_connections_active",
			"Currently proxied frontend connections."),
		ConnectionsTotal: reg.Counter("cqms_proxy_connections_total",
			"Frontend connections accepted since start."),
		DialErrors: reg.Counter("cqms_proxy_backend_dial_errors_total",
			"Failed backend dials (the client got an ErrorResponse)."),
		HandshakeErrors: reg.Counter("cqms_proxy_handshake_errors_total",
			"Connections dropped during the startup phase (bad packet, unsupported protocol)."),
		StatementsCaptured: reg.Counter("cqms_proxy_statements_captured_total",
			"Statements observed and enqueued for CQMS submission."),
		StatementsDropped: reg.Counter("cqms_proxy_statements_dropped_total",
			"Statements observed but dropped: the capture queue was full, or the statement alone was too large for a batch request to a remote server."),
		SubmitErrors: reg.Counter("cqms_proxy_submit_errors_total",
			"Capture batches the sink failed to submit (statements in them are lost)."),
		SubmitLatency: reg.Histogram("cqms_proxy_submit_seconds",
			"Sink submission latency per capture batch.", telemetry.DefBuckets),
	}
	m.messagesDecoded = reg.CounterVec("cqms_proxy_messages_decoded_total",
		"Client-stream protocol messages relayed, by decoded type.", "type")
	m.msgQuery = m.messagesDecoded.With("query")
	m.msgParse = m.messagesDecoded.With("parse")
	m.msgBind = m.messagesDecoded.With("bind")
	m.msgExecute = m.messagesDecoded.With("execute")
	m.msgClose = m.messagesDecoded.With("close")
	m.msgOther = m.messagesDecoded.With("other")
	m.spliceBytes = reg.CounterVec("cqms_proxy_splice_bytes_total",
		"Bytes relayed through the proxy, by direction (frontend: client to backend).", "direction")
	m.BytesFrontend = m.spliceBytes.With("frontend")
	m.BytesBackend = m.spliceBytes.With("backend")
	return m
}

// countMessage records one decoded client-stream message.
func (m *Metrics) countMessage(t byte) {
	switch t {
	case typeQuery:
		m.msgQuery.Inc()
	case typeParse:
		m.msgParse.Inc()
	case typeBind:
		m.msgBind.Inc()
	case typeExecute:
		m.msgExecute.Inc()
	case typeClose:
		m.msgClose.Inc()
	default:
		m.msgOther.Inc()
	}
}
