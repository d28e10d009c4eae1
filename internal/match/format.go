package match

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// The line-oriented correspondence exchange format used by cmd/efes:
//
//	clients.full_name -> customers.name   # attribute correspondence
//	clients -> customers                  # table correspondence
//
// Comment lines (#) and blank lines are ignored. The format round-trips
// through WriteText / ParseText.

// ParseText reads correspondences in the line-oriented exchange format.
func ParseText(r io.Reader) (*Set, error) {
	set := &Set{}
	sc := bufio.NewScanner(r)
	// No line limit: WriteText writes a line longer than the one it was
	// parsed from, and must read back.
	sc.Buffer(nil, math.MaxInt)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		parts := strings.Split(line, "->")
		if len(parts) != 2 {
			return nil, fmt.Errorf("match: line %d: malformed correspondence %q", lineno, line)
		}
		src := strings.TrimSpace(parts[0])
		tgt := strings.TrimSpace(parts[1])
		if src == "" || tgt == "" {
			return nil, fmt.Errorf("match: line %d: empty side in %q", lineno, line)
		}
		srcParts := strings.SplitN(src, ".", 2)
		tgtParts := strings.SplitN(tgt, ".", 2)
		if len(srcParts) != len(tgtParts) {
			return nil, fmt.Errorf("match: line %d: cannot mix table and attribute correspondence in %q", lineno, line)
		}
		// An empty name would render as another correspondence, or as
		// none: ". -> ." parses to empty attributes, which WriteText
		// writes as the table correspondence " -> ".
		if slices.Contains(srcParts, "") || slices.Contains(tgtParts, "") {
			return nil, fmt.Errorf("match: line %d: empty name in %q", lineno, line)
		}
		if len(srcParts) == 1 {
			set.Table(srcParts[0], tgtParts[0])
		} else {
			set.Attr(srcParts[0], srcParts[1], tgtParts[0], tgtParts[1])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// WriteText writes the set in the line-oriented exchange format.
func (s *Set) WriteText(w io.Writer) error {
	for _, c := range s.All {
		if _, err := fmt.Fprintln(w, c.String()); err != nil {
			return err
		}
	}
	return nil
}
