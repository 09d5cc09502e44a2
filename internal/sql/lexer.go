package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// LexError describes a lexical error with its position in the input.
type LexError struct {
	Pos  int
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *LexError) Error() string {
	return fmt.Sprintf("lex error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Lexer splits a SQL string into tokens. The zero value is not usable; use
// NewLexer.
type Lexer struct {
	input string
	pos   int
	line  int
	col   int
}

// NewLexer returns a lexer over input.
func NewLexer(input string) *Lexer {
	return &Lexer{input: input, line: 1, col: 1}
}

// Tokenize scans the whole input and returns all tokens including the
// terminating EOF token.
func Tokenize(input string) ([]Token, error) {
	lx := NewLexer(input)
	// One token per four bytes is what ordinary statements come to. The guess
	// is capped: the input comes from outside and may be one huge literal, and
	// must not size an allocation beyond the tokens it actually holds.
	toks := make([]Token, 0, min(len(input)/4+2, 256))
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokenEOF {
			return toks, nil
		}
	}
}

func (l *Lexer) errorf(format string, args ...interface{}) error {
	return &LexError{Pos: l.pos, Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.input) {
		return 0
	}
	return l.input[l.pos]
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.input) {
		return 0
	}
	return l.input[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.input[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.input) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance()
		case c == '-' && l.peekAt(1) == '-':
			for l.pos < len(l.input) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.input) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token in the input, or an error for malformed input.
// After the end of input it returns a TokenEOF token indefinitely.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	startPos, startLine, startCol := l.pos, l.line, l.col
	mk := func(kind TokenKind, text string) Token {
		return Token{Kind: kind, Text: text, Pos: startPos, Line: startLine, Col: startCol}
	}
	if l.pos >= len(l.input) {
		return mk(TokenEOF, ""), nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		return l.lexWord(mk)
	case c >= '0' && c <= '9':
		return l.lexNumber(mk)
	case c == '.':
		// A dot followed by a digit starts a number (e.g. ".5"); otherwise
		// it is the qualification separator.
		if d := l.peekAt(1); d >= '0' && d <= '9' {
			return l.lexNumber(mk)
		}
		l.advance()
		return mk(TokenDot, "."), nil
	case c == '\'':
		return l.lexString(mk)
	case c == '"':
		return l.lexQuotedIdent(mk)
	case c == ',':
		l.advance()
		return mk(TokenComma, ","), nil
	case c == '(':
		l.advance()
		return mk(TokenLParen, "("), nil
	case c == ')':
		l.advance()
		return mk(TokenRParen, ")"), nil
	case c == ';':
		l.advance()
		return mk(TokenSemicolon, ";"), nil
	case c == '*':
		l.advance()
		return mk(TokenStar, "*"), nil
	case c == '?':
		l.advance()
		return mk(TokenParam, "?"), nil
	case c == '$':
		l.advance()
		var sb strings.Builder
		sb.WriteByte('$')
		for l.pos < len(l.input) && l.peek() >= '0' && l.peek() <= '9' {
			sb.WriteByte(l.advance())
		}
		if sb.Len() == 1 {
			return Token{}, l.errorf("expected digits after '$'")
		}
		return mk(TokenParam, sb.String()), nil
	default:
		return l.lexOperator(mk)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *Lexer) lexWord(mk func(TokenKind, string) Token) (Token, error) {
	start := l.pos
	for l.pos < len(l.input) && isIdentPart(l.peek()) {
		l.advance()
	}
	word := l.input[start:l.pos]
	upper := strings.ToUpper(word)
	if IsKeyword(upper) {
		return mk(TokenKeyword, upper), nil
	}
	return mk(TokenIdent, word), nil
}

func (l *Lexer) lexNumber(mk func(TokenKind, string) Token) (Token, error) {
	start := l.pos
	seenDot := false
	seenExp := false
	for l.pos < len(l.input) {
		c := l.peek()
		switch {
		case c >= '0' && c <= '9':
			l.advance()
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.advance()
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.advance()
			if s := l.peek(); s == '+' || s == '-' {
				l.advance()
			}
		default:
			goto done
		}
	}
done:
	text := l.input[start:l.pos]
	if text == "." {
		return Token{}, l.errorf("malformed number")
	}
	return mk(TokenNumber, text), nil
}

func (l *Lexer) lexString(mk func(TokenKind, string) Token) (Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for l.pos < len(l.input) {
		c := l.advance()
		if c == '\'' {
			// Doubled quote is an escaped quote.
			if l.peek() == '\'' {
				l.advance()
				sb.WriteByte('\'')
				continue
			}
			return mk(TokenString, sb.String()), nil
		}
		sb.WriteByte(c)
	}
	return Token{}, l.errorf("unterminated string literal")
}

func (l *Lexer) lexQuotedIdent(mk func(TokenKind, string) Token) (Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for l.pos < len(l.input) {
		c := l.advance()
		if c == '"' {
			if l.peek() == '"' {
				l.advance()
				sb.WriteByte('"')
				continue
			}
			if sb.Len() == 0 {
				return Token{}, l.errorf("empty quoted identifier")
			}
			return mk(TokenQuotedIdent, sb.String()), nil
		}
		sb.WriteByte(c)
	}
	return Token{}, l.errorf("unterminated quoted identifier")
}

var twoCharOps = map[string]bool{
	"<=": true, ">=": true, "<>": true, "!=": true, "||": true,
}

var oneCharOps = map[byte]bool{
	'=': true, '<': true, '>': true, '+': true, '-': true, '/': true, '%': true,
}

func (l *Lexer) lexOperator(mk func(TokenKind, string) Token) (Token, error) {
	if l.pos+1 < len(l.input) {
		two := l.input[l.pos : l.pos+2]
		if twoCharOps[two] {
			l.advance()
			l.advance()
			return mk(TokenOperator, two), nil
		}
	}
	c := l.peek()
	if oneCharOps[c] {
		l.advance()
		return mk(TokenOperator, string(c)), nil
	}
	if !unicode.IsPrint(rune(c)) {
		return Token{}, l.errorf("unexpected byte 0x%02x", c)
	}
	return Token{}, l.errorf("unexpected character %q", string(c))
}
