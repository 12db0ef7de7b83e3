package obs

// ParseText is the read side of WriteFamilies: a parser for the Prometheus
// text exposition format (version 0.0.4), turning a scrape back into
// []Family so reports can render a process's /metrics — cache counters —
// without a Prometheus dependency. It accepts
// exactly what WriteFamilies emits plus the usual format freedoms (any
// HELP/TYPE order, untyped samples with no metadata).

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseText parses a text-format scrape into families, in order of first
// appearance.
func ParseText(r io.Reader) ([]Family, error) {
	byName := make(map[string]*Family)
	var order []string
	family := func(name string) *Family {
		f := byName[name]
		if f == nil {
			f = &Family{Name: name}
			byName[name] = f
			order = append(order, name)
		}
		return f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				f := family(fields[2])
				rest := ""
				if len(fields) == 4 {
					rest = fields[3]
				}
				if fields[1] == "HELP" {
					f.Help = unescapeHelp(rest)
				} else {
					f.Type = rest
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: parse line %d: %w", lineno, err)
		}
		f := family(name)
		f.Metrics = append(f.Metrics, Metric{Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: parse: %w", err)
	}
	out := make([]Family, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out, nil
}

// unescapeHelp reverses escapeHelp.
func unescapeHelp(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			if s[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// parseSample splits one sample line into name, labels, and value.
func parseSample(line string) (string, []Label, float64, error) {
	nameEnd := strings.IndexAny(line, "{ \t")
	if nameEnd < 0 {
		return "", nil, 0, fmt.Errorf("no value in %q", line)
	}
	name := line[:nameEnd]
	rest := line[nameEnd:]
	var labels []Label
	if rest[0] == '{' {
		var err error
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return "", nil, 0, fmt.Errorf("%q: %w", line, err)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return "", nil, 0, fmt.Errorf("no value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("%q: %w", line, err)
	}
	return name, labels, v, nil
}

// parseLabels consumes `a="x",b="y"}` (the opening brace already eaten)
// and returns the labels plus the remainder of the line.
func parseLabels(s string) ([]Label, string, error) {
	var labels []Label
	for {
		s = strings.TrimLeft(s, " \t,")
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, "", fmt.Errorf("label %s: value not quoted", name)
		}
		val, rest, err := parseQuoted(s[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", name, err)
		}
		labels = append(labels, Label{Name: name, Value: val})
		s = rest
	}
}

// parseQuoted consumes a label value up to its closing quote, handling the
// exposition-format escapes (\\, \", \n).
func parseQuoted(s string) (value, rest string, err error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("trailing backslash")
			}
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}

// parseValue parses a sample value, accepting the spelled-out specials.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return inf(1), nil
	case "-Inf":
		return inf(-1), nil
	case "NaN":
		return nan(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func inf(sign int) float64 {
	v := 0.0
	if sign > 0 {
		return 1 / v
	}
	return -1 / v
}

func nan() float64 {
	v := 0.0
	return v / v
}

// FindFamily returns the first parsed family with the given name.
func FindFamily(fams []Family, name string) (Family, bool) {
	for _, f := range fams {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// CacheStatsFrom reassembles a CacheStats from the three families
// CacheFamilies(prefix, ...) emits. ok is false when none are present.
func CacheStatsFrom(fams []Family, prefix string) (CacheStats, bool) {
	var s CacheStats
	found := false
	read := func(name string) uint64 {
		f, ok := FindFamily(fams, name)
		if !ok || len(f.Metrics) == 0 {
			return 0
		}
		found = true
		return uint64(f.Metrics[0].Value)
	}
	s.Hits = read(prefix + "_hits_total")
	s.Misses = read(prefix + "_misses_total")
	s.Entries = int(read(prefix + "_entries"))
	return s, found
}
