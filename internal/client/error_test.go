package client

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestErrorDetailsRoundTrip: the details map a server puts in its error
// envelope survives the client decode and is reachable through the Error
// accessors — the read_only refusal's primary pointer being the motivating
// case.
func TestErrorDetailsRoundTrip(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		w.Write([]byte(`{"error":{"code":"read_only",` +
			`"message":"this server is a read replica; writes go to the primary",` +
			`"details":{"role":"follower","primary":"http://primary:8080"}}}`))
	}))
	defer ts.Close()

	_, err := New(ts.URL, WithUser("alice")).Submit(ctx, "SELECT lake FROM WaterTemp")
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *client.Error", err)
	}
	if apiErr.API.Code != server.CodeReadOnly || apiErr.Status != http.StatusForbidden {
		t.Fatalf("code %q status %d", apiErr.API.Code, apiErr.Status)
	}
	if got := apiErr.Detail("primary"); got != "http://primary:8080" {
		t.Fatalf("Detail(primary) = %q", got)
	}
	if got := apiErr.API.Details; len(got) != 2 || got["role"] != "follower" {
		t.Fatalf("Details() = %v", got)
	}
	// The rendered message names the primary (details in stable key order).
	msg := apiErr.Error()
	if !strings.Contains(msg, "primary=http://primary:8080") || !strings.Contains(msg, "role=follower") {
		t.Fatalf("Error() = %q; details missing", msg)
	}
	if strings.Index(msg, "primary=") > strings.Index(msg, "role=") {
		t.Fatalf("Error() = %q; details not in sorted key order", msg)
	}

	// No details: accessors are nil-safe and the message is unchanged.
	tsPlain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":{"code":"not_found","message":"nope"}}`))
	}))
	defer tsPlain.Close()
	_, err = New(tsPlain.URL).GetQuery(ctx, 1)
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *client.Error", err)
	}
	if apiErr.API.Details != nil || apiErr.Detail("anything") != "" {
		t.Fatalf("empty details not nil-safe: %v", apiErr.API.Details)
	}
	if strings.Contains(apiErr.Error(), "[") {
		t.Fatalf("Error() = %q; unexpected details suffix", apiErr.Error())
	}
}
