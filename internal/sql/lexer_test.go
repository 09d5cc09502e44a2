package sql

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeSimpleSelect(t *testing.T) {
	toks, err := Tokenize("SELECT a, b FROM t WHERE a = 1")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []TokenKind{
		TokenKeyword, TokenIdent, TokenComma, TokenIdent, TokenKeyword,
		TokenIdent, TokenKeyword, TokenIdent, TokenOperator, TokenNumber, TokenEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d kind = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizeKeywordsUppercased(t *testing.T) {
	toks, err := Tokenize("select * from WaterSalinity")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[0].Text != "SELECT" || toks[0].Kind != TokenKeyword {
		t.Errorf("first token = %v, want keyword SELECT", toks[0])
	}
	if toks[3].Text != "WaterSalinity" || toks[3].Kind != TokenIdent {
		t.Errorf("identifier should preserve case, got %v", toks[3])
	}
}

func TestTokenizeStringLiterals(t *testing.T) {
	toks, err := Tokenize("SELECT 'Lake Washington', 'it''s'")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[1].Kind != TokenString || toks[1].Text != "Lake Washington" {
		t.Errorf("string token = %v", toks[1])
	}
	if toks[3].Kind != TokenString || toks[3].Text != "it's" {
		t.Errorf("escaped quote token = %v", toks[3])
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"42", "42"},
		{"3.14", "3.14"},
		{".5", ".5"},
		{"1e10", "1e10"},
		{"2.5E-3", "2.5E-3"},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.in)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", c.in, err)
			continue
		}
		if toks[0].Kind != TokenNumber || toks[0].Text != c.want {
			t.Errorf("Tokenize(%q) = %v, want number %q", c.in, toks[0], c.want)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := Tokenize("a <= b >= c <> d != e || f")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TokenOperator {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<=", ">=", "<>", "!=", "||"}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Errorf("operators = %v, want %v", ops, want)
	}
}

func TestTokenizeComments(t *testing.T) {
	input := `SELECT a -- trailing comment
FROM /* block
comment */ t`
	toks, err := Tokenize(input)
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind != TokenEOF {
			texts = append(texts, tok.Text)
		}
	}
	want := []string{"SELECT", "a", "FROM", "t"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestTokenizeQuotedIdentifier(t *testing.T) {
	toks, err := Tokenize(`SELECT "my column" FROM "My Table"`)
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[1].Kind != TokenQuotedIdent || toks[1].Text != "my column" {
		t.Errorf("quoted ident = %v", toks[1])
	}
	if toks[3].Kind != TokenQuotedIdent || toks[3].Text != "My Table" {
		t.Errorf("quoted ident = %v", toks[3])
	}
}

func TestTokenizeParams(t *testing.T) {
	toks, err := Tokenize("WHERE a = ? AND b = $2")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	var params []string
	for _, tok := range toks {
		if tok.Kind == TokenParam {
			params = append(params, tok.Text)
		}
	}
	if len(params) != 2 || params[0] != "?" || params[1] != "$2" {
		t.Errorf("params = %v", params)
	}
}

func TestTokenizeErrors(t *testing.T) {
	cases := []string{
		"SELECT 'unterminated",
		`SELECT "unterminated`,
		"SELECT a /* unterminated",
		"SELECT $",
		"SELECT #",
	}
	for _, in := range cases {
		if _, err := Tokenize(in); err == nil {
			t.Errorf("Tokenize(%q) succeeded, want error", in)
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("SELECT a\nFROM t")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	// "FROM" is the third token and starts on line 2, column 1.
	from := toks[2]
	if from.Text != "FROM" {
		t.Fatalf("unexpected token order: %v", toks)
	}
	if from.Line != 2 || from.Col != 1 {
		t.Errorf("FROM position = line %d col %d, want line 2 col 1", from.Line, from.Col)
	}
}

func TestTokenizeLongInputTerminates(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("col")
	}
	toks, err := Tokenize(sb.String())
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[len(toks)-1].Kind != TokenEOF {
		t.Errorf("last token should be EOF")
	}
}

// TestTokenizeAllocatesForTokensNotBytes: the token slice is sized by the
// tokens the input holds, not by its length — a megabyte of one string
// literal is three tokens, and the text comes from outside.
func TestTokenizeAllocatesForTokensNotBytes(t *testing.T) {
	toks, err := Tokenize("SELECT '" + strings.Repeat("x", 1<<20) + "'")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if len(toks) != 3 || cap(toks) > 256 {
		t.Errorf("len = %d, cap = %d; want 3 tokens in a slice of at most 256", len(toks), cap(toks))
	}
}
