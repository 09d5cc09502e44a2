package core

import (
	"reflect"
	"slices"
	"testing"
)

// configSurface is every leaf of Config. A setting stays a field only while
// two non-test callers set it to different values, or when it describes the
// deployment (a directory, a sync policy, an interval, a registry); any other
// setting is a constant in the package that reads it.
var configSurface = []string{
	"Profiler.Sample.Adaptive",
	"Profiler.Sample.FixedRows",
	"Profiler.CaptureParseErrors",
	"Recommender.ContextAware",
	"Durability.Dir",
	"Durability.SyncPolicy",
	"Durability.SegmentBytes",
	"Durability.SnapshotEvery",
	"MiningInterval",
	"MaintenanceInterval",
	"Metrics",
}

// TestConfigSurface pins the settings a caller can choose: a new field of
// Config, or of a component config it embeds, fails here until it is listed.
func TestConfigSurface(t *testing.T) {
	var leaves []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
				continue
			}
			leaves = append(leaves, prefix+f.Name)
		}
	}
	walk("", reflect.TypeOf(Config{}))
	for _, leaf := range leaves {
		if !slices.Contains(configSurface, leaf) {
			t.Errorf("Config gained %s: a field needs two non-test callers with different values; "+
				"with one value in use, make it a constant in the package that reads it", leaf)
		}
	}
	for _, leaf := range configSurface {
		if !slices.Contains(leaves, leaf) {
			t.Errorf("Config no longer has %s: remove it from configSurface", leaf)
		}
	}
}
