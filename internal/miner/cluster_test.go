package miner

import (
	"testing"

	"repro/internal/storage"
)

// twoTopicRecords builds queries over two clearly separated topics: lake
// water quality and star catalogs.
func twoTopicRecords(t testing.TB) []*storage.QueryRecord {
	t.Helper()
	lakeQueries := []string{
		"SELECT temp FROM WaterTemp WHERE temp < 18",
		"SELECT temp FROM WaterTemp WHERE temp < 22",
		"SELECT lake, temp FROM WaterTemp WHERE temp < 15",
		"SELECT lake, temp, salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x",
		"SELECT temp, salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND temp < 18",
		"SELECT AVG(temp) FROM WaterTemp GROUP BY lake",
	}
	starQueries := []string{
		"SELECT ra, dec FROM Stars WHERE magnitude < 6",
		"SELECT ra, dec FROM Stars WHERE magnitude < 4",
		"SELECT name FROM Stars WHERE dec > 40",
		"SELECT ra FROM Stars WHERE ra BETWEEN 10 AND 20",
	}
	var out []*storage.QueryRecord
	for _, q := range append(lakeQueries, starQueries...) {
		out = append(out, rec(t, q))
	}
	return out
}

// clusterConfig is k-medoids over feature sets as the E7 ablation runs it.
func clusterConfig(k int) ClusterConfig {
	return ClusterConfig{K: k, Measure: MeasureFeatures, MaxIters: 20, Seed: 1}
}

func clusterOfRecord(clusters []Cluster, idx int) int {
	for ci, c := range clusters {
		for _, m := range c.Members {
			if m == idx {
				return ci
			}
		}
	}
	return -1
}

func TestKMedoidsSeparatesTopics(t *testing.T) {
	records := twoTopicRecords(t)
	clusters := KMedoids(records, clusterConfig(2))
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
	// All lake queries (indexes 0..5) in one cluster, all star queries
	// (6..9) in the other.
	lakeCluster := clusterOfRecord(clusters, 0)
	for i := 1; i <= 5; i++ {
		if clusterOfRecord(clusters, i) != lakeCluster {
			t.Errorf("lake query %d not in lake cluster", i)
		}
	}
	starCluster := clusterOfRecord(clusters, 6)
	if starCluster == lakeCluster {
		t.Fatalf("topics not separated")
	}
	for i := 7; i <= 9; i++ {
		if clusterOfRecord(clusters, i) != starCluster {
			t.Errorf("star query %d not in star cluster", i)
		}
	}
}

func TestKMedoidsEveryRecordAssignedOnce(t *testing.T) {
	records := twoTopicRecords(t)
	clusters := KMedoids(records, clusterConfig(3))
	seen := make(map[int]int)
	for _, c := range clusters {
		if len(c.Members) == 0 {
			t.Errorf("empty cluster returned")
		}
		for _, m := range c.Members {
			seen[m]++
		}
		if c.Cohesion < 0 || c.Cohesion > 1 {
			t.Errorf("cohesion out of range: %v", c.Cohesion)
		}
		// Medoid must be a member.
		isMember := false
		for _, m := range c.Members {
			if m == c.Medoid {
				isMember = true
			}
		}
		if !isMember {
			t.Errorf("medoid %d not among members", c.Medoid)
		}
	}
	if len(seen) != len(records) {
		t.Errorf("assigned records = %d, want %d", len(seen), len(records))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("record %d assigned %d times", idx, n)
		}
	}
}

func TestKMedoidsEdgeCases(t *testing.T) {
	if c := KMedoids(nil, clusterConfig(3)); c != nil {
		t.Errorf("empty input should return nil")
	}
	all := twoTopicRecords(t)
	// Two structurally unrelated queries with K larger than the record count:
	// one cluster per record.
	records := []*storage.QueryRecord{all[0], all[6]}
	clusters := KMedoids(records, clusterConfig(10))
	if len(clusters) != 2 {
		t.Errorf("clusters = %d, want 2", len(clusters))
	}
	// Identical queries collapse into a single cluster even with K=10.
	dupes := []*storage.QueryRecord{all[0], all[1]}
	clusters = KMedoids(dupes, clusterConfig(10))
	if len(clusters) != 1 {
		t.Errorf("clusters over near-identical queries = %d, want 1", len(clusters))
	}
	if c := KMedoids(records, clusterConfig(0)); c != nil {
		t.Errorf("K=0 should return nil")
	}
}

func TestKMedoidsDeterministic(t *testing.T) {
	records := twoTopicRecords(t)
	a := KMedoids(records, clusterConfig(2))
	b := KMedoids(records, clusterConfig(2))
	if len(a) != len(b) {
		t.Fatalf("non-deterministic cluster count")
	}
	for i := range a {
		if a[i].Medoid != b[i].Medoid || len(a[i].Members) != len(b[i].Members) {
			t.Errorf("non-deterministic clustering at %d", i)
		}
	}
}
