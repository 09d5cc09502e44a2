// Package pgwire implements a PostgreSQL wire-protocol (v3) man-in-the-middle
// proxy that captures the query log passively: clients connect to the proxy
// with any Postgres driver (psql, JDBC, a BI tool), the proxy splices bytes
// between client and backend unchanged, and every statement observed on the
// client-side stream — simple-protocol Query messages and extended-protocol
// Parse/Bind/Execute sequences — is submitted asynchronously into the CQMS
// through the batch path.
//
// This realises the paper's core premise that a CQMS "collects query logs as
// a side effect of normal DBMS use" (Khoussainova et al., CIDR 2009 §1):
// nothing about the client or the backend changes, and a blocked or slow CQMS
// can never stall the proxied session — capture is a bounded queue with
// drop-with-counter backpressure.
//
// The package is organised as:
//
//   - message.go: the v3 message codec (startup packet + typed framed
//     messages, plus the frontend/backend payload builders and parsers)
//   - tracker.go: per-connection statement tracking (multi-statement Query
//     splitting; named prepared statements so an Execute is attributed to
//     the SQL text of the statement its portal was bound from)
//   - sink.go: where captured statements go (embedded core.CQMS, remote
//     cqms-server via internal/client) behind an async bounded queue
//   - proxy.go: the accept/handshake/splice loops
//   - fakebackend.go, frontend.go: an in-process backend speaking enough of
//     the protocol for tests and demos, and a minimal frontend used by the
//     tests and cqms-workload's proxy replay mode
package pgwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Protocol version numbers seen in startup packets (the int32 after the
// length). Regular startups carry the protocol version proper; the three
// magic values request SSL, GSSAPI encryption or query cancellation instead.
const (
	ProtocolVersion3 = 196608   // 3 << 16
	sslRequestCode   = 80877103 // (1234 << 16) | 5679
	cancelRequest    = 80877102 // (1234 << 16) | 5678
	gssEncRequest    = 80877104 // (1234 << 16) | 5680
)

// maxStartupBytes bounds a startup packet; the Postgres server uses 10000.
const maxStartupBytes = 10000

// maxMessageBytes bounds one framed message. 1 GiB matches the backend's own
// message size ceiling.
const maxMessageBytes = 1 << 30

// readStepBytes is how much of a payload ReadMessage asks for at a time: its
// buffer grows as bytes actually arrive, so a length prefix costs no more
// memory than the stream really holds. A message under the step — nearly
// every one — is still one allocation of its exact size.
const readStepBytes = 64 << 10

// Frontend message type bytes the proxy decodes. Everything else (password
// messages, CopyData, Describe, Flush, Sync, ...) is spliced through without
// interpretation.
const (
	typeQuery     = 'Q'
	typeParse     = 'P'
	typeBind      = 'B'
	typeExecute   = 'E'
	typeClose     = 'C'
	typeTerminate = 'X'
)

// Backend message type bytes used by the fake backend and the error writer.
const (
	typeAuth            = 'R'
	typeParameterStatus = 'S'
	typeBackendKeyData  = 'K'
	typeReadyForQuery   = 'Z'
	typeCommandComplete = 'C'
	typeEmptyQuery      = 'I'
	typeErrorResponse   = 'E'
	typeParseComplete   = '1'
	typeBindComplete    = '2'
	typeCloseComplete   = '3'
	typeNoData          = 'n'
)

// StartupMessage is the first packet of a connection: no type byte, an int32
// length (including itself), an int32 protocol version and, for a regular v3
// startup, a sequence of key\0value\0 parameter pairs closed by a final \0.
type StartupMessage struct {
	Protocol uint32
	// Params holds the startup parameters of a regular startup: at least
	// "user", usually "database", plus driver options.
	Params map[string]string
	// Raw is the packet exactly as read (length prefix included), so the
	// proxy can forward it to the backend byte-identically.
	Raw []byte
}

// IsSSLRequest reports whether the packet is an SSLRequest probe.
func (m *StartupMessage) IsSSLRequest() bool { return m.Protocol == sslRequestCode }

// IsGSSEncRequest reports whether the packet is a GSSENCRequest probe.
func (m *StartupMessage) IsGSSEncRequest() bool { return m.Protocol == gssEncRequest }

// IsCancelRequest reports whether the packet is a CancelRequest.
func (m *StartupMessage) IsCancelRequest() bool { return m.Protocol == cancelRequest }

// User returns the startup "user" parameter.
func (m *StartupMessage) User() string { return m.Params["user"] }

// Database returns the startup "database" parameter, defaulting to the user
// name as the backend itself does.
func (m *StartupMessage) Database() string {
	if db, ok := m.Params["database"]; ok && db != "" {
		return db
	}
	return m.Params["user"]
}

// ReadStartup reads one startup-phase packet. It handles short reads (the
// packet may arrive fragmented across TCP segments) and rejects lengths
// outside the protocol's bounds.
func ReadStartup(r io.Reader) (*StartupMessage, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(head[:])
	if length < 8 || length > maxStartupBytes {
		return nil, fmt.Errorf("pgwire: startup packet length %d out of range", length)
	}
	raw := make([]byte, length)
	copy(raw, head[:])
	if _, err := io.ReadFull(r, raw[4:]); err != nil {
		return nil, fmt.Errorf("pgwire: short startup packet: %w", err)
	}
	msg := &StartupMessage{
		Protocol: binary.BigEndian.Uint32(raw[4:8]),
		Raw:      raw,
	}
	switch msg.Protocol {
	case sslRequestCode, gssEncRequest, cancelRequest:
		return msg, nil
	}
	if msg.Protocol>>16 != 3 {
		return nil, fmt.Errorf("pgwire: unsupported protocol version %d.%d",
			msg.Protocol>>16, msg.Protocol&0xffff)
	}
	msg.Params = map[string]string{}
	rest := raw[8:]
	for len(rest) > 0 && rest[0] != 0 {
		key, n, ok := cstring(rest)
		if !ok {
			return nil, errors.New("pgwire: malformed startup parameter key")
		}
		rest = rest[n:]
		val, n, ok := cstring(rest)
		if !ok {
			return nil, errors.New("pgwire: malformed startup parameter value")
		}
		rest = rest[n:]
		msg.Params[key] = val
	}
	return msg, nil
}

// Message is one framed protocol message after the startup phase: a type
// byte, then an int32 length covering the length field and payload (not the
// type byte), then the payload.
type Message struct {
	Type    byte
	Payload []byte
}

// ReadMessage reads one framed message, handling fragmentation across reads.
// It allocates a fresh payload slice per message.
func ReadMessage(r io.Reader) (Message, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return Message{}, err
	}
	length := binary.BigEndian.Uint32(head[1:5])
	if length < 4 || length > maxMessageBytes {
		return Message{}, fmt.Errorf("pgwire: message %q length %d out of range", head[0], length)
	}
	n := int(length - 4)
	payload := make([]byte, 0, min(n, readStepBytes))
	for len(payload) < n {
		step := min(n-len(payload), readStepBytes)
		payload = slices.Grow(payload, step)
		got, err := io.ReadFull(r, payload[len(payload):len(payload)+step])
		payload = payload[:len(payload)+got]
		if err != nil {
			return Message{}, fmt.Errorf("pgwire: short %q message: %w", head[0], err)
		}
	}
	return Message{Type: head[0], Payload: payload}, nil
}

// WriteTo writes the message in wire framing. The frame written is exactly
// what ReadMessage consumed, so read-then-write splicing is byte-identical.
func (m Message) WriteTo(w io.Writer) (int64, error) {
	var head [5]byte
	head[0] = m.Type
	binary.BigEndian.PutUint32(head[1:5], uint32(len(m.Payload)+4))
	if _, err := w.Write(head[:]); err != nil {
		return 0, err
	}
	n, err := w.Write(m.Payload)
	return int64(n) + 5, err
}

// cstring extracts a NUL-terminated string from b, returning the string, the
// number of bytes consumed (terminator included) and whether a terminator was
// found.
func cstring(b []byte) (string, int, bool) {
	for i, c := range b {
		if c == 0 {
			return string(b[:i]), i + 1, true
		}
	}
	return "", 0, false
}

// ---------------------------------------------------------------------------
// Frontend payload parsers (what the proxy decodes off the client stream)
// ---------------------------------------------------------------------------

// ParseQuery decodes a simple-protocol Query ('Q') payload: the query string.
func ParseQuery(payload []byte) (string, error) {
	s, _, ok := cstring(payload)
	if !ok {
		return "", errors.New("pgwire: Query without terminator")
	}
	return s, nil
}

// ParseParse decodes a Parse ('P') payload: destination prepared-statement
// name (empty = the unnamed statement) and the query text. The parameter-type
// OIDs that follow are ignored.
func ParseParse(payload []byte) (name, query string, err error) {
	name, n, ok := cstring(payload)
	if !ok {
		return "", "", errors.New("pgwire: Parse without statement name terminator")
	}
	query, _, ok = cstring(payload[n:])
	if !ok {
		return "", "", errors.New("pgwire: Parse without query terminator")
	}
	return name, query, nil
}

// ParseBind decodes a Bind ('B') payload: destination portal name and source
// prepared-statement name. Parameter formats and values are ignored.
func ParseBind(payload []byte) (portal, statement string, err error) {
	portal, n, ok := cstring(payload)
	if !ok {
		return "", "", errors.New("pgwire: Bind without portal terminator")
	}
	statement, _, ok = cstring(payload[n:])
	if !ok {
		return "", "", errors.New("pgwire: Bind without statement terminator")
	}
	return portal, statement, nil
}

// ParseExecute decodes an Execute ('E') payload: the portal name. The row
// limit that follows is ignored.
func ParseExecute(payload []byte) (portal string, err error) {
	portal, _, ok := cstring(payload)
	if !ok {
		return "", errors.New("pgwire: Execute without portal terminator")
	}
	return portal, nil
}

// ParseClose decodes a Close ('C') payload: 'S' (statement) or 'P' (portal)
// and the name.
func ParseClose(payload []byte) (kind byte, name string, err error) {
	if len(payload) < 1 {
		return 0, "", errors.New("pgwire: empty Close payload")
	}
	name, _, ok := cstring(payload[1:])
	if !ok {
		return 0, "", errors.New("pgwire: Close without name terminator")
	}
	return payload[0], name, nil
}

// ---------------------------------------------------------------------------
// Backend payload builders (used by the fake backend and the proxy's own
// pre-splice error reporting)
// ---------------------------------------------------------------------------

// buildMessage frames a payload as a typed message.
func buildMessage(t byte, payload []byte) []byte {
	out := make([]byte, 5+len(payload))
	out[0] = t
	binary.BigEndian.PutUint32(out[1:5], uint32(len(payload)+4))
	copy(out[5:], payload)
	return out
}

// authenticationOK is the AuthenticationOk message ('R' with code 0).
func authenticationOK() []byte {
	var payload [4]byte
	return buildMessage(typeAuth, payload[:])
}

// parameterStatus reports one server parameter to the client.
func parameterStatus(key, value string) []byte {
	payload := make([]byte, 0, len(key)+len(value)+2)
	payload = append(payload, key...)
	payload = append(payload, 0)
	payload = append(payload, value...)
	payload = append(payload, 0)
	return buildMessage(typeParameterStatus, payload)
}

// backendKeyData carries the cancellation key (fixed in the fake backend so
// responses are deterministic).
func backendKeyData(pid, secret uint32) []byte {
	var payload [8]byte
	binary.BigEndian.PutUint32(payload[0:4], pid)
	binary.BigEndian.PutUint32(payload[4:8], secret)
	return buildMessage(typeBackendKeyData, payload[:])
}

// readyForQuery signals the end of a command cycle; status is 'I' (idle),
// 'T' (in transaction) or 'E' (failed transaction).
func readyForQuery(status byte) []byte {
	return buildMessage(typeReadyForQuery, []byte{status})
}

// commandComplete closes one command with its tag ("SELECT 1", ...).
func commandComplete(tag string) []byte {
	payload := make([]byte, 0, len(tag)+1)
	payload = append(payload, tag...)
	payload = append(payload, 0)
	return buildMessage(typeCommandComplete, payload)
}

// errorResponse builds a minimal ErrorResponse with severity, SQLSTATE code
// and message fields.
func errorResponse(severity, code, message string) []byte {
	var payload []byte
	appendField := func(t byte, v string) {
		payload = append(payload, t)
		payload = append(payload, v...)
		payload = append(payload, 0)
	}
	appendField('S', severity)
	appendField('V', severity)
	appendField('C', code)
	appendField('M', message)
	payload = append(payload, 0)
	return buildMessage(typeErrorResponse, payload)
}
