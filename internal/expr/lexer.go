package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokInt
	tokFloat
	tokString
	tokIdent
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokLBrace
	tokRBrace
	tokComma
	tokColon
	tokDot
	tokQuestion
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokEq    // ==
	tokNeq   // !=
	tokLt    // <
	tokLte   // <=
	tokGt    // >
	tokGte   // >=
	tokAnd   // &&
	tokOr    // ||
	tokNot   // !
	tokIn    // in
	tokTrue  // true
	tokFalse // false
	tokNull  // null
)

var tokenNames = map[tokenKind]string{
	tokEOF: "end of expression", tokInt: "integer", tokFloat: "float",
	tokString: "string", tokIdent: "identifier", tokLParen: "'('",
	tokRParen: "')'", tokLBracket: "'['", tokRBracket: "']'",
	tokLBrace: "'{'", tokRBrace: "'}'", tokComma: "','", tokColon: "':'",
	tokDot: "'.'", tokQuestion: "'?'", tokPlus: "'+'", tokMinus: "'-'",
	tokStar: "'*'", tokSlash: "'/'", tokPercent: "'%'", tokEq: "'=='",
	tokNeq: "'!='", tokLt: "'<'", tokLte: "'<='", tokGt: "'>'",
	tokGte: "'>='", tokAnd: "'&&'", tokOr: "'||'", tokNot: "'!'",
	tokIn: "'in'", tokTrue: "'true'", tokFalse: "'false'", tokNull: "'null'",
}

func (k tokenKind) String() string {
	if s, ok := tokenNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	pos  int
	text string  // raw text for idents; decoded text for strings
	i    int64   // value for tokInt
	f    float64 // value for tokFloat
}

// SyntaxError describes a lexing or parsing failure with its byte
// offset in the source expression.
type SyntaxError struct {
	Pos    int
	Source string
	Msg    string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: syntax error at offset %d in %q: %s", e.Pos, e.Source, e.Msg)
}

// lexer turns a source string into tokens.
type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Source: l.src, Msg: fmt.Sprintf(format, args...)}
}

// lex tokenizes the whole source up front. Expressions are short, so a
// single pass into a slice is simpler and faster than streaming.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case c == '"' || c == '\'':
		return l.lexString(c)
	}
	// Decode the rune: a byte of a multi-byte character (or of invalid
	// UTF-8) read as a Latin-1 letter would start an empty identifier.
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	if isIdentStart(r) {
		return l.lexIdent()
	}
	// Operators and punctuation.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "==":
		l.pos += 2
		return token{kind: tokEq, pos: start}, nil
	case "!=":
		l.pos += 2
		return token{kind: tokNeq, pos: start}, nil
	case "<=":
		l.pos += 2
		return token{kind: tokLte, pos: start}, nil
	case ">=":
		l.pos += 2
		return token{kind: tokGte, pos: start}, nil
	case "&&":
		l.pos += 2
		return token{kind: tokAnd, pos: start}, nil
	case "||":
		l.pos += 2
		return token{kind: tokOr, pos: start}, nil
	}
	l.pos++
	switch c {
	case '(':
		return token{kind: tokLParen, pos: start}, nil
	case ')':
		return token{kind: tokRParen, pos: start}, nil
	case '[':
		return token{kind: tokLBracket, pos: start}, nil
	case ']':
		return token{kind: tokRBracket, pos: start}, nil
	case '{':
		return token{kind: tokLBrace, pos: start}, nil
	case '}':
		return token{kind: tokRBrace, pos: start}, nil
	case ',':
		return token{kind: tokComma, pos: start}, nil
	case ':':
		return token{kind: tokColon, pos: start}, nil
	case '.':
		return token{kind: tokDot, pos: start}, nil
	case '?':
		return token{kind: tokQuestion, pos: start}, nil
	case '+':
		return token{kind: tokPlus, pos: start}, nil
	case '-':
		return token{kind: tokMinus, pos: start}, nil
	case '*':
		return token{kind: tokStar, pos: start}, nil
	case '/':
		return token{kind: tokSlash, pos: start}, nil
	case '%':
		return token{kind: tokPercent, pos: start}, nil
	case '<':
		return token{kind: tokLt, pos: start}, nil
	case '>':
		return token{kind: tokGt, pos: start}, nil
	case '!':
		return token{kind: tokNot, pos: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", r)
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !isFloat && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			isFloat = true
			l.pos++
		case c == 'e' || c == 'E':
			isFloat = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, l.errf(start, "bad float literal %q", text)
		}
		return token{kind: tokFloat, pos: start, f: f}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		// Overflowing integer literals degrade to float.
		f, ferr := strconv.ParseFloat(text, 64)
		if ferr != nil {
			return token{}, l.errf(start, "bad number literal %q", text)
		}
		return token{kind: tokFloat, pos: start, f: f}, nil
	}
	return token{kind: tokInt, pos: start, i: i}, nil
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tokString, pos: start, text: sb.String()}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, l.errf(start, "unterminated string")
			}
			esc := l.src[l.pos]
			l.pos++
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case 'a':
				sb.WriteByte('\a')
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'v':
				sb.WriteByte('\v')
			case '\\':
				sb.WriteByte('\\')
			case '\'':
				sb.WriteByte('\'')
			case '"':
				sb.WriteByte('"')
			case 'u':
				if l.pos+4 > len(l.src) {
					return token{}, l.errf(start, "bad \\u escape")
				}
				n, err := strconv.ParseUint(l.src[l.pos:l.pos+4], 16, 32)
				if err != nil {
					return token{}, l.errf(start, "bad \\u escape")
				}
				l.pos += 4
				sb.WriteRune(rune(n))
			case 'U':
				if l.pos+8 > len(l.src) {
					return token{}, l.errf(start, "bad \\U escape")
				}
				n, err := strconv.ParseUint(l.src[l.pos:l.pos+8], 16, 32)
				if err != nil || n > 0x10FFFF {
					return token{}, l.errf(start, "bad \\U escape")
				}
				l.pos += 8
				sb.WriteRune(rune(n))
			case 'x':
				if l.pos+2 > len(l.src) {
					return token{}, l.errf(start, "bad \\x escape")
				}
				n, err := strconv.ParseUint(l.src[l.pos:l.pos+2], 16, 32)
				if err != nil {
					return token{}, l.errf(start, "bad \\x escape")
				}
				l.pos += 2
				sb.WriteByte(byte(n))
			default:
				return token{}, l.errf(start, "unknown escape \\%c", esc)
			}
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf(start, "unterminated string")
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	text := l.src[start:l.pos]
	switch text {
	case "true":
		return token{kind: tokTrue, pos: start}, nil
	case "false":
		return token{kind: tokFalse, pos: start}, nil
	case "null", "nil":
		return token{kind: tokNull, pos: start}, nil
	case "in":
		return token{kind: tokIn, pos: start}, nil
	case "and":
		return token{kind: tokAnd, pos: start}, nil
	case "or":
		return token{kind: tokOr, pos: start}, nil
	case "not":
		return token{kind: tokNot, pos: start}, nil
	}
	return token{kind: tokIdent, pos: start, text: text}, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
