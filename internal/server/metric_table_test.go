package server_test

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/pgwire"
	"repro/internal/telemetry"
)

// TestREADMEMetricTableMatchesTheRegistries: README's table of metric
// families names exactly the families a durable primary and the capture
// proxy register — no registered family is missing from it, and it names
// none that nobody registers.
func TestREADMEMetricTableMatchesTheRegistries(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(readme), "Metric families by layer")
	_, rest, _ = strings.Cut(rest, "\n\n")
	table, _, _ := strings.Cut(rest, "\n\n")
	if !strings.HasPrefix(table, "| Family |") {
		t.Fatal("README has no metric table after \"Metric families by layer\"")
	}
	documented := map[string]bool{}
	family := regexp.MustCompile("`(cqms_[a-z0-9_]+)")
	for _, line := range strings.Split(table, "\n") {
		if cell, _, _ := strings.Cut(strings.TrimPrefix(line, "| "), " |"); strings.HasPrefix(cell, "`cqms_") {
			for _, m := range family.FindAllStringSubmatch(cell, -1) {
				documented[m[1]] = true
			}
		}
	}

	_, alice, admin := newDurableServer(t)
	if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	primary, err := admin.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	reg := telemetry.NewRegistry()
	pgwire.NewMetrics(reg)
	var proxy bytes.Buffer
	if err := reg.WritePrometheus(&proxy, true); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(primary+proxy.String(), -1) {
		registered[m[1]] = true
	}

	var missing, unknown []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(unknown)
	if len(missing) > 0 {
		t.Errorf("registered but not in README's metric table: %v", missing)
	}
	if len(unknown) > 0 {
		t.Errorf("in README's metric table but registered by neither a durable primary nor the proxy: %v", unknown)
	}
}
