package miner

import (
	"sort"

	"repro/internal/storage"
)

// Cluster is one group of similar queries produced by KMedoids (§4.3): a
// medoid (the most central query) plus its members.
type Cluster struct {
	// Medoid is the index (into the clustered record slice) of the cluster's
	// representative query.
	Medoid int
	// Members are indexes of the cluster's queries, medoid included.
	Members []int
	// MedoidID is the stored query ID of the medoid.
	MedoidID storage.QueryID
	// Cohesion is the mean similarity of members to the medoid.
	Cohesion float64
}

// ClusterConfig controls the k-medoids clustering.
type ClusterConfig struct {
	K        int
	Measure  Measure
	MaxIters int
	// Seed drives the deterministic pseudo-random medoid initialisation.
	Seed int64
}

// KMedoids clusters the records into cfg.K clusters using the PAM-style
// alternating assignment/update heuristic over the chosen similarity measure.
// It returns the clusters sorted by descending size. When there are fewer
// records than K, each record forms its own cluster.
func KMedoids(records []*storage.QueryRecord, cfg ClusterConfig) []Cluster {
	n := len(records)
	if n == 0 || cfg.K <= 0 {
		return nil
	}
	k := cfg.K
	if k > n {
		k = n
	}
	sim := PairwiseMatrix(cfg.Measure, records)

	// Deterministic initialisation: spread medoids with a greedy max-min
	// distance sweep seeded by cfg.Seed.
	medoids := initialMedoids(sim, k, cfg.Seed)

	assign := make([]int, n)
	maxIters := cfg.MaxIters
	if maxIters <= 0 {
		maxIters = 20
	}
	for iter := 0; iter < maxIters; iter++ {
		// Assignment step.
		changed := false
		for i := 0; i < n; i++ {
			best, bestSim := 0, -1.0
			for ci, m := range medoids {
				if sim[i][m] > bestSim {
					bestSim = sim[i][m]
					best = ci
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Update step: the new medoid maximises total similarity within the
		// cluster.
		newMedoids := make([]int, len(medoids))
		copy(newMedoids, medoids)
		for ci := range medoids {
			var members []int
			for i := 0; i < n; i++ {
				if assign[i] == ci {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			bestIdx, bestTotal := members[0], -1.0
			for _, cand := range members {
				total := 0.0
				for _, other := range members {
					total += sim[cand][other]
				}
				if total > bestTotal {
					bestTotal = total
					bestIdx = cand
				}
			}
			newMedoids[ci] = bestIdx
		}
		medoidsChanged := false
		for i := range medoids {
			if medoids[i] != newMedoids[i] {
				medoidsChanged = true
			}
		}
		medoids = newMedoids
		if !changed && !medoidsChanged {
			break
		}
	}

	// Build clusters.
	clusters := make([]Cluster, len(medoids))
	for ci, m := range medoids {
		clusters[ci] = Cluster{Medoid: m, MedoidID: records[m].ID}
	}
	for i := 0; i < n; i++ {
		clusters[assign[i]].Members = append(clusters[assign[i]].Members, i)
	}
	out := clusters[:0]
	for _, c := range clusters {
		if len(c.Members) == 0 {
			continue
		}
		total := 0.0
		for _, m := range c.Members {
			total += sim[c.Medoid][m]
		}
		c.Cohesion = total / float64(len(c.Members))
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i].Members) > len(out[j].Members) })
	return out
}

// initialMedoids picks k well-spread points: the first is chosen by the seed,
// each subsequent one is the point least similar to the already-chosen set.
func initialMedoids(sim [][]float64, k int, seed int64) []int {
	n := len(sim)
	first := int(seed) % n
	if first < 0 {
		first += n
	}
	medoids := []int{first}
	chosen := map[int]bool{first: true}
	for len(medoids) < k {
		bestIdx, bestScore := -1, 2.0
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			// Score = max similarity to any chosen medoid; pick the minimum.
			maxSim := 0.0
			for _, m := range medoids {
				if sim[i][m] > maxSim {
					maxSim = sim[i][m]
				}
			}
			if maxSim < bestScore {
				bestScore = maxSim
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		medoids = append(medoids, bestIdx)
		chosen[bestIdx] = true
	}
	return medoids
}
