package miner

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperTransactions models the paper's §2.3 example: CityLocations is the
// globally most popular table, but among queries that use WaterSalinity the
// most common co-occurring table is WaterTemp.
func paperTransactions() [][]string {
	var tx [][]string
	// 40 queries over CityLocations alone.
	for i := 0; i < 40; i++ {
		tx = append(tx, []string{"table:CityLocations", "col:CityLocations.city"})
	}
	// 25 queries joining WaterSalinity with WaterTemp.
	for i := 0; i < 25; i++ {
		tx = append(tx, []string{"table:WaterSalinity", "table:WaterTemp", "col:WaterTemp.temp"})
	}
	// 5 queries joining WaterSalinity with CityLocations.
	for i := 0; i < 5; i++ {
		tx = append(tx, []string{"table:WaterSalinity", "table:CityLocations"})
	}
	// 30 queries over WaterTemp alone.
	for i := 0; i < 30; i++ {
		tx = append(tx, []string{"table:WaterTemp", "col:WaterTemp.temp", "pred:WaterTemp.temp < ?"})
	}
	return tx
}

func findRule(rules []Rule, antecedent, consequent string) (Rule, bool) {
	for _, r := range rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0] == antecedent && r.Consequent == consequent {
			return r, true
		}
	}
	return Rule{}, false
}

func TestMineAssociationRulesPaperExample(t *testing.T) {
	rules := MineAssociationRules(paperTransactions(), AssocConfig{MinSupport: 0.02, MinConfidence: 0.3, MaxItemsetSize: 3})
	if len(rules) == 0 {
		t.Fatal("no rules mined")
	}
	// The context-aware suggestion of §2.3: WaterSalinity => WaterTemp with
	// high confidence.
	r, ok := findRule(rules, "table:WaterSalinity", "table:WaterTemp")
	if !ok {
		t.Fatalf("rule WaterSalinity => WaterTemp not mined; rules = %v", rules)
	}
	if r.Confidence < 0.8 {
		t.Errorf("confidence = %v, want >= 0.8 (25 of 30 WaterSalinity queries)", r.Confidence)
	}
	// The competing rule WaterSalinity => CityLocations must have much lower
	// confidence (or be absent).
	if r2, ok := findRule(rules, "table:WaterSalinity", "table:CityLocations"); ok {
		if r2.Confidence >= r.Confidence {
			t.Errorf("CityLocations rule confidence %v should be below WaterTemp rule %v", r2.Confidence, r.Confidence)
		}
	}
}

func TestMineAssociationRulesSupportThreshold(t *testing.T) {
	tx := paperTransactions()
	// With a 50% support threshold almost nothing is frequent.
	rules := MineAssociationRules(tx, AssocConfig{MinSupport: 0.5, MinConfidence: 0.1, MaxItemsetSize: 2})
	for _, r := range rules {
		if r.Support < 0.5 {
			t.Errorf("rule %v violates support threshold", r)
		}
	}
}

func TestMineAssociationRulesConfidenceAndMetrics(t *testing.T) {
	rules := MineAssociationRules(paperTransactions(), DefaultAssocConfig())
	for _, r := range rules {
		if r.Confidence < DefaultAssocConfig().MinConfidence {
			t.Errorf("rule %v below confidence threshold", r)
		}
		if r.Support <= 0 || r.Support > 1 {
			t.Errorf("rule %v has invalid support", r)
		}
		if r.Confidence < r.Support-1e-9 {
			t.Errorf("rule %v: confidence %v cannot be below support %v", r.Key(), r.Confidence, r.Support)
		}
		if r.Lift <= 0 {
			t.Errorf("rule %v has non-positive lift", r)
		}
	}
	// Rules are sorted by descending confidence.
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence {
			t.Errorf("rules not sorted by confidence")
			break
		}
	}
}

func TestMineAssociationRulesEmptyAndTiny(t *testing.T) {
	if rules := MineAssociationRules(nil, DefaultAssocConfig()); len(rules) != 0 {
		t.Errorf("empty input should give no rules")
	}
	rules := MineAssociationRules([][]string{{"a"}}, DefaultAssocConfig())
	if len(rules) != 0 {
		t.Errorf("single one-item transaction should give no rules, got %v", rules)
	}
}

func TestMineAssociationRulesThreeItemRules(t *testing.T) {
	var tx [][]string
	for i := 0; i < 50; i++ {
		tx = append(tx, []string{"a", "b", "c"})
	}
	for i := 0; i < 50; i++ {
		tx = append(tx, []string{"a", "d"})
	}
	rules := MineAssociationRules(tx, AssocConfig{MinSupport: 0.1, MinConfidence: 0.9, MaxItemsetSize: 3})
	found := false
	for _, r := range rules {
		if len(r.Antecedent) == 2 && r.Consequent == "c" {
			found = true
			if r.Confidence != 1.0 {
				t.Errorf("{a,b} => c confidence = %v, want 1.0", r.Confidence)
			}
		}
	}
	if !found {
		t.Errorf("two-item antecedent rule not mined: %v", rules)
	}
}

func TestTopRulesFor(t *testing.T) {
	rules := MineAssociationRules(paperTransactions(), DefaultAssocConfig())
	// A query that already includes WaterSalinity: the top applicable rule
	// should suggest WaterTemp.
	top := TopRulesFor(rules, []string{"table:WaterSalinity"}, 3)
	if len(top) == 0 {
		t.Fatal("no applicable rules")
	}
	// Among the top suggestions, WaterTemp appears and ranks above
	// CityLocations (the §2.3 context-aware behaviour).
	rankOf := func(consequent string) int {
		for i, r := range top {
			if r.Consequent == consequent {
				return i
			}
		}
		return len(top)
	}
	if rankOf("table:WaterTemp") == len(top) {
		t.Fatalf("table:WaterTemp not among top suggestions: %+v", top)
	}
	if rankOf("table:CityLocations") < rankOf("table:WaterTemp") {
		t.Errorf("CityLocations ranked above WaterTemp: %+v", top)
	}
	// Already-present consequents are not suggested again.
	top = TopRulesFor(rules, []string{"table:WaterSalinity", "table:WaterTemp"}, 10)
	for _, r := range top {
		if r.Consequent == "table:WaterTemp" || r.Consequent == "table:WaterSalinity" {
			t.Errorf("suggested an already-present feature: %v", r)
		}
	}
	// Limit respected.
	top = TopRulesFor(rules, []string{"table:WaterTemp"}, 1)
	if len(top) > 1 {
		t.Errorf("limit not respected: %d", len(top))
	}
}

// Property: every rule's support and confidence lie in (0, 1], and confidence
// never falls below the configured threshold.
func TestPropertyRuleMetricsBounded(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e", "f"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(80)
		tx := make([][]string, n)
		for i := range tx {
			k := 1 + r.Intn(4)
			var row []string
			for j := 0; j < k; j++ {
				row = append(row, items[r.Intn(len(items))])
			}
			tx[i] = row
		}
		cfg := AssocConfig{MinSupport: 0.05, MinConfidence: 0.4, MaxItemsetSize: 3}
		for _, rule := range MineAssociationRules(tx, cfg) {
			if rule.Support <= 0 || rule.Support > 1 {
				return false
			}
			if rule.Confidence < cfg.MinConfidence || rule.Confidence > 1+1e-9 {
				return false
			}
			if len(rule.Antecedent) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
