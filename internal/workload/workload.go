// Package workload is the evaluation substrate of this reproduction. The
// paper motivates the CQMS with large shared scientific databases (SDSS,
// IRIS, LSST) and their multi-user exploratory query traces; neither the
// databases nor the traces are available, so this package synthesises the
// closest equivalent: a water-quality/astronomy-style schema (the paper's own
// running example plus a second scientific topic), deterministic data, and
// multi-user exploratory query traces with ground-truth session boundaries
// and topics.
//
// The traces are session-structured: each synthetic session starts from a
// topic template and evolves through constant tweaks, added predicates,
// added tables/joins, projection changes and aggregation — the behaviours the
// session detector, miner and recommender are designed to exploit.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/storage"
)

// SchemaDDL returns the CREATE TABLE statements of the synthetic scientific
// database: the paper's lakes schema plus an astronomy topic.
func SchemaDDL() []string {
	return []string{
		"CREATE TABLE WaterTemp (id INT PRIMARY KEY, lake TEXT, loc_x INT, loc_y INT, temp FLOAT, measured_day INT)",
		"CREATE TABLE WaterSalinity (id INT PRIMARY KEY, lake TEXT, loc_x INT, loc_y INT, salinity FLOAT, depth FLOAT)",
		"CREATE TABLE CityLocations (city TEXT, state TEXT, loc_x INT, loc_y INT, pop INT)",
		"CREATE TABLE Sensors (sensor_id INT PRIMARY KEY, lake TEXT, kind TEXT, installed_day INT, battery FLOAT)",
		"CREATE TABLE Stars (star_id INT PRIMARY KEY, name TEXT, ra FLOAT, dec FLOAT, magnitude FLOAT)",
		"CREATE TABLE Observations (obs_id INT PRIMARY KEY, star_id INT, observed_day INT, flux FLOAT, band TEXT)",
	}
}

// Columns returns the schema as a table -> column-names map, used to seed the
// recommender's schema catalog.
func Columns() map[string][]string {
	return map[string][]string{
		"WaterTemp":     {"id", "lake", "loc_x", "loc_y", "temp", "measured_day"},
		"WaterSalinity": {"id", "lake", "loc_x", "loc_y", "salinity", "depth"},
		"CityLocations": {"city", "state", "loc_x", "loc_y", "pop"},
		"Sensors":       {"sensor_id", "lake", "kind", "installed_day", "battery"},
		"Stars":         {"star_id", "name", "ra", "dec", "magnitude"},
		"Observations":  {"obs_id", "star_id", "observed_day", "flux", "band"},
	}
}

var lakeNames = []string{
	"Lake Washington", "Lake Union", "Lake Sammamish", "Lake Chelan",
	"Lake Crescent", "Lake Tahoe", "Lake Michigan", "Lake Superior",
}

var cityRows = []struct {
	city, state string
	locX, locY  int
	pop         int
}{
	{"Seattle", "WA", 10, 20, 750000},
	{"Bellevue", "WA", 12, 22, 150000},
	{"Tacoma", "WA", 14, 18, 220000},
	{"Spokane", "WA", 40, 25, 230000},
	{"Portland", "OR", 16, 5, 650000},
	{"Detroit", "MI", 90, 95, 630000},
	{"Ann Arbor", "MI", 92, 93, 120000},
	{"Chicago", "IL", 80, 70, 2700000},
}

// Populate creates the schema in the engine and fills it with rowsPerTable
// deterministic rows per measurement table (seeded by seed).
func Populate(eng *engine.Engine, rowsPerTable int, seed int64) error {
	for _, ddl := range SchemaDDL() {
		if _, err := eng.Execute(ddl); err != nil {
			return fmt.Errorf("workload: creating schema: %w", err)
		}
	}
	r := rand.New(rand.NewSource(seed))
	cat := eng.Catalog()

	insert := func(table string, rows []engine.Row) error {
		if _, err := cat.Insert(table, nil, rows); err != nil {
			return fmt.Errorf("workload: populating %s: %w", table, err)
		}
		return nil
	}

	var tempRows, salRows, sensorRows []engine.Row
	for i := 0; i < rowsPerTable; i++ {
		lake := lakeNames[r.Intn(len(lakeNames))]
		locX := int64(r.Intn(100))
		locY := int64(r.Intn(100))
		tempRows = append(tempRows, engine.Row{
			engine.NewInt(int64(i + 1)), engine.NewText(lake),
			engine.NewInt(locX), engine.NewInt(locY),
			engine.NewFloat(4 + r.Float64()*26), engine.NewInt(int64(r.Intn(365))),
		})
		salRows = append(salRows, engine.Row{
			engine.NewInt(int64(i + 1)), engine.NewText(lake),
			engine.NewInt(locX), engine.NewInt(locY),
			engine.NewFloat(r.Float64() * 5), engine.NewFloat(r.Float64() * 60),
		})
	}
	sensorKinds := []string{"thermistor", "conductivity", "ph", "turbidity"}
	for i := 0; i < rowsPerTable/10+1; i++ {
		sensorRows = append(sensorRows, engine.Row{
			engine.NewInt(int64(i + 1)), engine.NewText(lakeNames[r.Intn(len(lakeNames))]),
			engine.NewText(sensorKinds[r.Intn(len(sensorKinds))]),
			engine.NewInt(int64(r.Intn(3650))), engine.NewFloat(r.Float64() * 100),
		})
	}
	var cityRowsData []engine.Row
	for _, c := range cityRows {
		cityRowsData = append(cityRowsData, engine.Row{
			engine.NewText(c.city), engine.NewText(c.state),
			engine.NewInt(int64(c.locX)), engine.NewInt(int64(c.locY)), engine.NewInt(int64(c.pop)),
		})
	}
	var starRows, obsRows []engine.Row
	for i := 0; i < rowsPerTable/2+1; i++ {
		starRows = append(starRows, engine.Row{
			engine.NewInt(int64(i + 1)), engine.NewText(fmt.Sprintf("HD%05d", i+1)),
			engine.NewFloat(r.Float64() * 360), engine.NewFloat(r.Float64()*180 - 90),
			engine.NewFloat(r.Float64() * 15),
		})
	}
	bands := []string{"u", "g", "r", "i", "z"}
	for i := 0; i < rowsPerTable; i++ {
		obsRows = append(obsRows, engine.Row{
			engine.NewInt(int64(i + 1)), engine.NewInt(int64(r.Intn(rowsPerTable/2+1) + 1)),
			engine.NewInt(int64(r.Intn(365))), engine.NewFloat(r.Float64() * 1000),
			engine.NewText(bands[r.Intn(len(bands))]),
		})
	}
	if err := insert("WaterTemp", tempRows); err != nil {
		return err
	}
	if err := insert("WaterSalinity", salRows); err != nil {
		return err
	}
	if err := insert("CityLocations", cityRowsData); err != nil {
		return err
	}
	if err := insert("Sensors", sensorRows); err != nil {
		return err
	}
	if err := insert("Stars", starRows); err != nil {
		return err
	}
	return insert("Observations", obsRows)
}

// ---------------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------------

// Query is one entry of a synthetic trace, with its ground-truth session and
// topic labels.
type Query struct {
	User      string
	Group     string
	SQL       string
	IssuedAt  time.Time
	SessionID int    // ground-truth session index (global, 1-based)
	Topic     string // ground-truth topic label
}

// Trace is a generated multi-user exploratory workload.
type Trace struct {
	Queries  []Query
	Sessions int
	Users    []string
}

// Config controls trace generation.
type Config struct {
	Seed            int64
	Users           int
	SessionsPerUser int
	// QueriesPerSession is the inclusive range of session lengths.
	MinQueriesPerSession int
	MaxQueriesPerSession int
	// ThinkTime is the pause between consecutive queries of one session.
	MinThinkTime time.Duration
	MaxThinkTime time.Duration
	// SessionGap is the pause between a user's sessions (always above the
	// session detector's 30-minute idle gap so ground truth is unambiguous).
	SessionGap time.Duration
	Start      time.Time
}

// DefaultConfig returns a medium-sized workload: 20 users, 10 sessions each.
func DefaultConfig() Config {
	return Config{
		Seed:                 42,
		Users:                20,
		SessionsPerUser:      10,
		MinQueriesPerSession: 3,
		MaxQueriesPerSession: 9,
		MinThinkTime:         20 * time.Second,
		MaxThinkTime:         3 * time.Minute,
		SessionGap:           2 * time.Hour,
		Start:                time.Date(2009, 1, 5, 8, 0, 0, 0, time.UTC),
	}
}

// topic is one exploration template.
type topic struct {
	name  string
	group string
	start func(r *rand.Rand) string
	steps []func(r *rand.Rand, prev string) string
}

// Generate produces a deterministic trace for the configuration.
func Generate(cfg Config) *Trace {
	r := rand.New(rand.NewSource(cfg.Seed))
	topics := allTopics()
	trace := &Trace{}
	sessionID := 0
	for u := 0; u < cfg.Users; u++ {
		user := fmt.Sprintf("user%02d", u)
		// Users 0..2/3 of the population are limnologists; the rest are
		// astronomers. Group membership drives both topic choice and the
		// access-control structure of the trace.
		group := "limnology"
		if u >= cfg.Users*2/3 {
			group = "astro"
		}
		trace.Users = append(trace.Users, user)
		now := cfg.Start.Add(time.Duration(u) * 7 * time.Minute)
		for s := 0; s < cfg.SessionsPerUser; s++ {
			sessionID++
			tp := pickTopic(r, topics, group)
			n := cfg.MinQueriesPerSession
			if cfg.MaxQueriesPerSession > cfg.MinQueriesPerSession {
				n += r.Intn(cfg.MaxQueriesPerSession - cfg.MinQueriesPerSession + 1)
			}
			current := tp.start(r)
			for q := 0; q < n; q++ {
				trace.Queries = append(trace.Queries, Query{
					User: user, Group: group, SQL: current, IssuedAt: now,
					SessionID: sessionID, Topic: tp.name,
				})
				step := tp.steps[r.Intn(len(tp.steps))]
				current = step(r, current)
				think := cfg.MinThinkTime
				if cfg.MaxThinkTime > cfg.MinThinkTime {
					think += time.Duration(r.Int63n(int64(cfg.MaxThinkTime - cfg.MinThinkTime)))
				}
				now = now.Add(think)
			}
			now = now.Add(cfg.SessionGap)
		}
	}
	trace.Sessions = sessionID
	return trace
}

func pickTopic(r *rand.Rand, topics []topic, group string) topic {
	var eligible []topic
	for _, t := range topics {
		if t.group == group || t.group == "" {
			eligible = append(eligible, t)
		}
	}
	return eligible[r.Intn(len(eligible))]
}

// Replay submits every trace query through the profiler in order, preserving
// timestamps, users, groups and group visibility. It returns the number of
// queries whose execution failed (they are still logged).
func Replay(trace *Trace, prof *profiler.Profiler) (int, error) {
	failures := 0
	for _, q := range trace.Queries {
		out, err := prof.Submit(profiler.Submission{
			User: q.User, Group: q.Group, Visibility: storage.VisibilityGroup,
			SQL: q.SQL, IssuedAt: q.IssuedAt,
		})
		if err != nil {
			return failures, fmt.Errorf("workload: replaying %q: %w", q.SQL, err)
		}
		if out.ExecError != nil {
			failures++
		}
	}
	return failures, nil
}

// ---------------------------------------------------------------------------
// Topic templates
// ---------------------------------------------------------------------------

func allTopics() []topic {
	return []topic{
		temperatureExploration(),
		correlationExploration(),
		cityAnalysis(),
		sensorAudit(),
		starSurvey(),
		lightCurveAnalysis(),
	}
}

func randTempThreshold(r *rand.Rand) int { return 8 + r.Intn(20) }

// temperatureExploration mimics Figure 2: filter WaterTemp by temperature,
// tweak the threshold, then join in salinity and locations.
func temperatureExploration() topic {
	return topic{
		name:  "temperature-exploration",
		group: "limnology",
		start: func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT * FROM WaterTemp WHERE temp < %d", randTempThreshold(r))
		},
		steps: []func(r *rand.Rand, prev string) string{
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT * FROM WaterTemp WHERE temp < %d", randTempThreshold(r))
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT lake, temp FROM WaterTemp WHERE temp < %d ORDER BY temp", randTempThreshold(r))
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < %d", randTempThreshold(r))
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT WaterTemp.lake, WaterTemp.temp, WaterSalinity.salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.loc_y = WaterSalinity.loc_y AND WaterTemp.temp < %d", randTempThreshold(r))
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT lake, AVG(temp) AS avg_temp FROM WaterTemp WHERE measured_day > %d GROUP BY lake ORDER BY avg_temp DESC", r.Intn(300))
			},
		},
	}
}

// correlationExploration is the paper's salinity/temperature correlation goal.
func correlationExploration() topic {
	return topic{
		name:  "salinity-correlation",
		group: "limnology",
		start: func(r *rand.Rand) string {
			return "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x"
		},
		steps: []func(r *rand.Rand, prev string) string{
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.temp < %d", randTempThreshold(r))
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterSalinity.depth > %d", 5+r.Intn(40))
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT WaterSalinity.lake, AVG(WaterSalinity.salinity) AS avg_sal, AVG(WaterTemp.temp) AS avg_temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x GROUP BY WaterSalinity.lake HAVING AVG(WaterTemp.temp) < %d", 10+randTempThreshold(r))
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT WaterSalinity.salinity, WaterTemp.temp, CityLocations.city FROM WaterSalinity, WaterTemp, CityLocations WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.loc_x = CityLocations.loc_x AND CityLocations.state = '%s'", pick(r, "WA", "OR", "MI"))
			},
		},
	}
}

func cityAnalysis() topic {
	return topic{
		name:  "city-analysis",
		group: "limnology",
		start: func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT city FROM CityLocations WHERE state = '%s'", pick(r, "WA", "OR", "MI", "IL"))
		},
		steps: []func(r *rand.Rand, prev string) string{
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT city FROM CityLocations WHERE state = '%s' AND pop > %d", pick(r, "WA", "OR", "MI", "IL"), 10000*(1+r.Intn(50)))
			},
			func(r *rand.Rand, prev string) string {
				return "SELECT state, COUNT(*) AS cities, SUM(pop) AS total_pop FROM CityLocations GROUP BY state ORDER BY total_pop DESC"
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT CityLocations.city, WaterTemp.temp FROM CityLocations, WaterTemp WHERE CityLocations.loc_x = WaterTemp.loc_x AND WaterTemp.temp > %d", randTempThreshold(r))
			},
		},
	}
}

func sensorAudit() topic {
	return topic{
		name:  "sensor-audit",
		group: "limnology",
		start: func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT sensor_id, battery FROM Sensors WHERE battery < %d", 10+r.Intn(40))
		},
		steps: []func(r *rand.Rand, prev string) string{
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT sensor_id, battery FROM Sensors WHERE battery < %d AND kind = '%s'", 10+r.Intn(40), pick(r, "thermistor", "conductivity", "ph"))
			},
			func(r *rand.Rand, prev string) string {
				return "SELECT lake, COUNT(*) AS sensors FROM Sensors GROUP BY lake ORDER BY sensors DESC"
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT Sensors.lake, AVG(WaterTemp.temp) FROM Sensors, WaterTemp WHERE Sensors.lake = WaterTemp.lake AND Sensors.kind = '%s' GROUP BY Sensors.lake", pick(r, "thermistor", "conductivity"))
			},
		},
	}
}

func starSurvey() topic {
	return topic{
		name:  "star-survey",
		group: "astro",
		start: func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT name, magnitude FROM Stars WHERE magnitude < %d", 4+r.Intn(8))
		},
		steps: []func(r *rand.Rand, prev string) string{
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT name, magnitude FROM Stars WHERE magnitude < %d AND dec > %d", 4+r.Intn(8), r.Intn(60))
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT name, ra, dec FROM Stars WHERE ra BETWEEN %d AND %d", 10*r.Intn(20), 200+10*r.Intn(16))
			},
			func(r *rand.Rand, prev string) string {
				return "SELECT COUNT(*) FROM Stars WHERE magnitude < 6"
			},
		},
	}
}

func lightCurveAnalysis() topic {
	return topic{
		name:  "light-curve",
		group: "astro",
		start: func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT Stars.name, Observations.flux FROM Stars, Observations WHERE Stars.star_id = Observations.star_id AND Observations.band = '%s'", pick(r, "u", "g", "r", "i", "z"))
		},
		steps: []func(r *rand.Rand, prev string) string{
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT Stars.name, Observations.flux FROM Stars, Observations WHERE Stars.star_id = Observations.star_id AND Observations.band = '%s' AND Observations.observed_day > %d", pick(r, "u", "g", "r"), r.Intn(300))
			},
			func(r *rand.Rand, prev string) string {
				return "SELECT Stars.name, AVG(Observations.flux) AS avg_flux FROM Stars, Observations WHERE Stars.star_id = Observations.star_id GROUP BY Stars.name ORDER BY avg_flux DESC LIMIT 20"
			},
			func(r *rand.Rand, prev string) string {
				return fmt.Sprintf("SELECT Observations.band, COUNT(*) FROM Observations WHERE Observations.flux > %d GROUP BY Observations.band", 100+r.Intn(500))
			},
		},
	}
}

func pick(r *rand.Rand, options ...string) string {
	return options[r.Intn(len(options))]
}
