package pgwire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"
)

// FrontendConn is a minimal Postgres-protocol client: enough of the v3
// frontend to drive the proxy from tests and from cqms-workload's proxy
// replay mode (startup, simple queries, extended-protocol prepare/execute).
// It is not a general driver — it assumes trust authentication, as the fake
// backend and typical local test setups provide.
type FrontendConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// DialFrontend connects, performs the startup handshake as user/database and
// waits for ReadyForQuery.
func DialFrontend(addr, user, database string) (*FrontendConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	f := &FrontendConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if err := f.startup(user, database); err != nil {
		conn.Close()
		return nil, err
	}
	return f, nil
}

// startup sends the startup packet and consumes the authentication /
// parameter exchange until ReadyForQuery.
func (f *FrontendConn) startup(user, database string) error {
	var body []byte
	body = binary.BigEndian.AppendUint32(body, ProtocolVersion3)
	appendParam := func(k, v string) {
		body = append(body, k...)
		body = append(body, 0)
		body = append(body, v...)
		body = append(body, 0)
	}
	appendParam("user", user)
	if database != "" {
		appendParam("database", database)
	}
	body = append(body, 0)
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], uint32(len(body)+4))
	if _, err := f.conn.Write(append(head[:], body...)); err != nil {
		return err
	}
	return f.waitReady()
}

// waitReady consumes backend messages until ReadyForQuery, surfacing any
// ErrorResponse on the way.
func (f *FrontendConn) waitReady() error {
	for {
		msg, err := ReadMessage(f.r)
		if err != nil {
			return err
		}
		switch msg.Type {
		case typeReadyForQuery:
			return nil
		case typeErrorResponse:
			return fmt.Errorf("pgwire: backend error: %s", errorMessageField(msg.Payload))
		}
	}
}

// SimpleQuery sends one simple-protocol Query message and consumes the
// response cycle through ReadyForQuery.
func (f *FrontendConn) SimpleQuery(sql string) error {
	payload := make([]byte, 0, len(sql)+1)
	payload = append(payload, sql...)
	payload = append(payload, 0)
	if _, err := (Message{Type: typeQuery, Payload: payload}).WriteTo(f.w); err != nil {
		return err
	}
	if err := f.w.Flush(); err != nil {
		return err
	}
	return f.waitReady()
}

// Close sends Terminate and closes the socket.
func (f *FrontendConn) Close() error {
	_, _ = (Message{Type: typeTerminate, Payload: nil}).WriteTo(f.w)
	_ = f.w.Flush()
	return f.conn.Close()
}

// errorMessageField extracts the human-readable message ('M') field from an
// ErrorResponse payload.
func errorMessageField(payload []byte) string {
	rest := payload
	for len(rest) > 0 && rest[0] != 0 {
		t := rest[0]
		v, n, ok := cstring(rest[1:])
		if !ok {
			break
		}
		if t == 'M' {
			return v
		}
		rest = rest[1+n:]
	}
	return "unknown error"
}
