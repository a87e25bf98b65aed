// Package yamlite is a minimal YAML-subset parser with a schema layer,
// written for the FlexRAN policy reconfiguration mechanism (paper §4.3.1,
// Fig. 3): the master controller expresses VSF swaps and parameter updates
// as an indentation-structured document such as
//
//	mac:
//	  dl_ue_sched:
//	    behavior: slice-rr
//	    parameters:
//	      rb_share: [0.7, 0.3]
//
// The stdlib has no YAML support and the module must stay dependency-free,
// so this package implements the subset the protocol needs: nested maps,
// block sequences ("- item"), inline sequences ("[a, b]"), scalars with
// int/float/bool/string interpretation, quoted strings and '#' comments.
// Anchors, aliases, multi-document streams and flow maps are out of scope.
// A double-quoted scalar takes Go's escapes and ends at the first " that no
// backslash escapes, as strconv.Unquote reads it; a single-quoted scalar
// writes each ' it holds twice. The comment, key and inline-item splitters
// step over a quoted run the same way, so no #, ": " or comma inside one
// splits a line.
// The package only reads documents: a writer appends the text itself and
// quotes its scalars with Quote.
//
// On top of the parser sits the schema layer (schema.go), the one decoder
// every document of the platform goes through: a section is a []Field
// table of keys and the Values that check and store them, and DecodeMap
// walks a map against it, refusing every key the table does not name.
// The scenario parser's sections and the agent's policy sections (agent,
// rrc, mac) are such tables; each Value phrases its constraint once, for
// both the error ("<path> must be <what>") and a generated reference.
package yamlite

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind discriminates node types.
type Kind uint8

// Node kinds.
const (
	KindScalar Kind = iota
	KindMap
	KindSeq
)

func (k Kind) String() string {
	switch k {
	case KindScalar:
		return "scalar"
	case KindMap:
		return "map"
	case KindSeq:
		return "seq"
	}
	return "invalid"
}

// Node is one value in a parsed document. A map holds its keys as written
// in keys and the value of keys[i] in items[i]; a sequence holds only items.
type Node struct {
	Kind   Kind
	scalar string
	keys   []string
	items  []*Node
}

// Get returns the child node for a map key, or nil.
func (n *Node) Get(key string) *Node {
	if n == nil || n.Kind != KindMap {
		return nil
	}
	if i := slices.Index(n.keys, key); i >= 0 {
		return n.items[i]
	}
	return nil
}

// Items returns the sequence items.
func (n *Node) Items() []*Node {
	if n == nil || n.Kind != KindSeq {
		return nil
	}
	return n.items
}

// Str returns the scalar as a string ("" for nil or non-scalars).
func (n *Node) Str() string {
	if n == nil || n.Kind != KindScalar {
		return ""
	}
	return n.scalar
}

// Int returns the scalar parsed as an integer.
func (n *Node) Int() (int64, error) {
	if n == nil || n.Kind != KindScalar {
		return 0, errors.New("yamlite: not a scalar")
	}
	return strconv.ParseInt(n.scalar, 10, 64)
}

// Float returns the scalar parsed as a float.
func (n *Node) Float() (float64, error) {
	if n == nil || n.Kind != KindScalar {
		return 0, errors.New("yamlite: not a scalar")
	}
	return strconv.ParseFloat(n.scalar, 64)
}

// Bool returns the scalar parsed as a boolean (true/false/yes/no/on/off).
func (n *Node) Bool() (bool, error) {
	if n == nil || n.Kind != KindScalar {
		return false, errors.New("yamlite: not a scalar")
	}
	switch strings.ToLower(n.scalar) {
	case "true", "yes", "on":
		return true, nil
	case "false", "no", "off":
		return false, nil
	}
	return false, fmt.Errorf("yamlite: %q is not a boolean", n.scalar)
}

// Floats returns a sequence interpreted as a float slice.
func (n *Node) Floats() ([]float64, error) {
	if n == nil || n.Kind != KindSeq {
		return nil, errors.New("yamlite: not a sequence")
	}
	out := make([]float64, 0, len(n.items))
	for _, it := range n.items {
		f, err := it.Float()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// line is a logical input line with indentation resolved.
type line struct {
	num    int
	indent int
	text   string // content with indentation stripped
}

// Parse parses a document into its root node (a map, sequence or scalar).
func Parse(doc string) (*Node, error) {
	var lines []line
	for i, raw := range strings.Split(doc, "\n") {
		text := stripComment(raw)
		if strings.TrimSpace(text) == "" {
			continue
		}
		trimmed := strings.TrimLeft(text, " ")
		if strings.HasPrefix(trimmed, "\t") {
			return nil, fmt.Errorf("yamlite: line %d: tabs are not allowed in indentation", i+1)
		}
		lines = append(lines, line{
			num:    i + 1,
			indent: len(text) - len(trimmed),
			text:   strings.TrimSpace(trimmed),
		})
	}
	if len(lines) == 0 {
		return &Node{Kind: KindMap}, nil
	}
	p := &parser{lines: lines}
	n, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, fmt.Errorf("yamlite: line %d: unexpected de-indent structure", p.lines[p.pos].num)
	}
	return n, nil
}

// next returns the index of the byte after the one at s[i], stepping over
// the whole quoted run when s[i] opens one: a double-quoted run ends at the
// first " that no backslash escapes, a single-quoted one at the next ', and
// a run left open ends with s. The splitters below scan with it, so each
// keeps only its own rule.
func next(s string, i int) int {
	q := s[i]
	if q != '"' && q != '\'' {
		return i + 1
	}
	for i++; i < len(s); i++ {
		switch s[i] {
		case q:
			return i + 1
		case '\\':
			if q == '"' {
				i++
			}
		}
	}
	return len(s)
}

// stripComment removes a trailing # comment that is not inside quotes.
func stripComment(s string) string {
	for i := 0; i < len(s); i = next(s, i) {
		if s[i] == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
			return s[:i]
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
	// seen indexes the keys of every map that has grown past linearKeys
	// entries, so that a long map still parses in linear time.
	seen map[mapKey]bool
}

type mapKey struct {
	m   *Node
	key string
}

// linearKeys is the map size up to which add finds a duplicate by scanning
// the keys; the maps of policy and scenario documents stay below it.
const linearKeys = 32

// add appends an entry for key, written on line num, to the map m, with an
// empty value the caller then sets in the last item. It is the one way a
// parsed map grows, so no map holds a key twice: a repeated key is refused
// before its value is parsed.
func (p *parser) add(m *Node, key string, num int) error {
	var dup bool
	if n := len(m.keys); n < linearKeys {
		dup = slices.Contains(m.keys, key)
	} else {
		if n == linearKeys {
			if p.seen == nil {
				p.seen = map[mapKey]bool{}
			}
			for _, k := range m.keys {
				p.seen[mapKey{m, k}] = true
			}
		}
		dup = p.seen[mapKey{m, key}]
		p.seen[mapKey{m, key}] = true
	}
	if dup {
		return fmt.Errorf("yamlite: line %d: duplicate key %q", num, key)
	}
	m.keys = append(m.keys, key)
	m.items = append(m.items, nil)
	return nil
}

func (p *parser) peek() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

// parseBlock parses the run of lines at exactly the given indentation.
func (p *parser) parseBlock(indent int) (*Node, error) {
	first, ok := p.peek()
	if !ok {
		return nil, errors.New("yamlite: empty block")
	}
	if strings.HasPrefix(first.text, "- ") || first.text == "-" {
		return p.parseSeq(indent)
	}
	if isMapEntry(first.text) {
		return p.parseMap(indent)
	}
	// Bare scalar document.
	p.pos++
	v, err := parseScalarOrInline(first.text)
	if err != nil {
		return nil, fmt.Errorf("yamlite: line %d: %v", first.num, err)
	}
	return v, nil
}

func isMapEntry(text string) bool {
	k, _, ok := splitKey(text)
	return ok && k != ""
}

// splitKey splits "key: value" at the first unquoted ": " or trailing ":".
func splitKey(text string) (key, rest string, ok bool) {
	for i := 0; i < len(text); i = next(text, i) {
		if text[i] != ':' {
			continue
		}
		if i == len(text)-1 {
			return strings.TrimSpace(text[:i]), "", true
		}
		if text[i+1] == ' ' {
			return strings.TrimSpace(text[:i]), strings.TrimSpace(text[i+2:]), true
		}
	}
	return "", "", false
}

// parseMap parses the run of "key: value" lines at the given indentation.
func (p *parser) parseMap(indent int) (*Node, error) {
	m := &Node{Kind: KindMap}
	for {
		ln, ok := p.peek()
		if !ok || ln.indent < indent {
			return m, nil
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("yamlite: line %d: unexpected indentation", ln.num)
		}
		key, rest, isMap := splitKey(ln.text)
		if !isMap {
			return nil, fmt.Errorf("yamlite: line %d: expected 'key:' entry", ln.num)
		}
		if err := p.add(m, unquote(key), ln.num); err != nil {
			return nil, err
		}
		p.pos++
		v, err := p.parseValue(ln, rest, indent)
		if err != nil {
			return nil, err
		}
		m.items[len(m.items)-1] = v
	}
}

// parseValue parses what follows "key:" or "-" on line ln: the inline
// rest when there is one, else the nested block below the line, else an
// empty scalar.
func (p *parser) parseValue(ln line, rest string, indent int) (*Node, error) {
	if rest != "" {
		v, err := parseScalarOrInline(rest)
		if err != nil {
			return nil, fmt.Errorf("yamlite: line %d: %v", ln.num, err)
		}
		return v, nil
	}
	next, ok := p.peek()
	if !ok || next.indent <= indent {
		return &Node{Kind: KindScalar}, nil
	}
	return p.parseBlock(next.indent)
}

func (p *parser) parseSeq(indent int) (*Node, error) {
	seq := &Node{Kind: KindSeq}
	for {
		ln, ok := p.peek()
		if !ok || ln.indent < indent {
			return seq, nil
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("yamlite: line %d: unexpected indentation", ln.num)
		}
		if ln.text != "-" && !strings.HasPrefix(ln.text, "- ") {
			return nil, fmt.Errorf("yamlite: line %d: expected sequence item", ln.num)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(ln.text, "-"))
		var v *Node
		var err error
		if isMapEntry(rest) {
			// "- key: value" opens a map item whose keys sit two columns
			// deeper than the dash: its line is read as the first of them.
			p.lines[p.pos] = line{num: ln.num, indent: ln.indent + 2, text: rest}
			v, err = p.parseMap(ln.indent + 2)
		} else {
			p.pos++
			v, err = p.parseValue(ln, rest, indent)
		}
		if err != nil {
			return nil, err
		}
		seq.items = append(seq.items, v)
	}
}

// parseScalarOrInline parses a scalar or an inline [a, b, c] sequence.
func parseScalarOrInline(text string) (*Node, error) {
	if strings.HasPrefix(text, "[") {
		if !strings.HasSuffix(text, "]") {
			return nil, fmt.Errorf("unterminated inline sequence %q", text)
		}
		inner := strings.TrimSpace(text[1 : len(text)-1])
		seq := &Node{Kind: KindSeq}
		if inner == "" {
			return seq, nil
		}
		for _, part := range splitInline(inner) {
			item, err := parseScalarOrInline(strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			seq.items = append(seq.items, item)
		}
		return seq, nil
	}
	s, err := scalarText(text)
	if err != nil {
		return nil, err
	}
	return &Node{Kind: KindScalar, scalar: s}, nil
}

// scalarText decodes a plain, double-quoted or single-quoted scalar.
func scalarText(text string) (string, error) {
	switch {
	case len(text) >= 2 && text[0] == '"' && text[len(text)-1] == '"':
		if u, err := strconv.Unquote(text); err == nil {
			return u, nil
		}
	case len(text) >= 2 && text[0] == '\'' && text[len(text)-1] == '\'':
		return strings.ReplaceAll(text[1:len(text)-1], "''", "'"), nil
	case len(text) == 0 || (text[0] != '"' && text[0] != '\''):
		return text, nil
	}
	// A leading quote without a matching closer would otherwise be
	// swallowed as a literal scalar — surface the typo instead.
	return "", fmt.Errorf("bad quoted string %s", text)
}

// splitInline splits "a, b, [c, d]" on top-level commas.
func splitInline(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i = next(s, i) {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// unquote decodes a map key as a scalar; a key that does not decode is
// kept as written.
func unquote(s string) string {
	if u, err := scalarText(s); err == nil {
		return u
	}
	return s
}

// Quote renders a one-line scalar for a document a writer appends by hand:
// double-quoted when it is empty, holds one of :#[],"' or has leading or
// trailing space, as written otherwise. A string without a newline reads
// back as itself as a map value or as a sequence item.
func Quote(s string) string {
	if s == "" || strings.ContainsAny(s, ":#[],\"'") || s != strings.TrimSpace(s) {
		return strconv.Quote(s)
	}
	return s
}
