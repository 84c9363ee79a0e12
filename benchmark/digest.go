package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"gcore"
)

// Output checks compare an identifier-free digest of every response
// with a reference digest computed through the direct Session API.
// Element identifiers never enter the digest: CONSTRUCT mints fresh
// (skolem) identifiers whose values depend on allocation order, so
// the digest keeps only counts, label histograms, the sorted multiset
// of element descriptors (labels + canonical properties, plus the
// endpoint node descriptors for edges and the node descriptor
// sequence for paths) and the sorted table rows, with graph-object
// references reduced to their kind.

// resultJSON is one entry of the server's "results" array.
type resultJSON struct {
	Graph json.RawMessage `json:"graph,omitempty"`
	Table json.RawMessage `json:"table,omitempty"`
}

type responseJSON struct {
	Results []resultJSON `json:"results"`
}

type graphDoc struct {
	Nodes []struct {
		ID     uint64                     `json:"id"`
		Labels []string                   `json:"labels"`
		Props  map[string]json.RawMessage `json:"properties"`
	} `json:"nodes"`
	Edges []struct {
		Src    uint64                     `json:"src"`
		Dst    uint64                     `json:"dst"`
		Labels []string                   `json:"labels"`
		Props  map[string]json.RawMessage `json:"properties"`
	} `json:"edges"`
	Paths []struct {
		Nodes  []uint64                   `json:"nodes"`
		Edges  []uint64                   `json:"edges"`
		Labels []string                   `json:"labels"`
		Props  map[string]json.RawMessage `json:"properties"`
	} `json:"paths"`
}

type tableDoc struct {
	Cols []string            `json:"cols"`
	Rows [][]json.RawMessage `json:"rows"`
}

// responseDigest digests the single result of a server response body.
func responseDigest(body []byte) (string, error) {
	var resp responseJSON
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Results) != 1 {
		return "", fmt.Errorf("want 1 result, got %d", len(resp.Results))
	}
	return resultDigest(resp.Results[0])
}

// engineDigest digests a result evaluated through the library API, by
// encoding it exactly as the server does.
func engineDigest(res *gcore.Result) (string, error) {
	var rj resultJSON
	var err error
	switch {
	case res == nil:
		return "", fmt.Errorf("nil result")
	case res.Table != nil:
		rj.Table, err = res.Table.MarshalJSON()
	case res.Graph != nil:
		rj.Graph, err = res.Graph.MarshalJSON()
	default:
		return "", fmt.Errorf("result has neither graph nor table")
	}
	if err != nil {
		return "", err
	}
	return resultDigest(rj)
}

func resultDigest(rj resultJSON) (string, error) {
	switch {
	case rj.Graph != nil:
		return graphDigest(rj.Graph)
	case rj.Table != nil:
		return tableDigest(rj.Table)
	}
	return "", fmt.Errorf("result has neither graph nor table")
}

func graphDigest(raw []byte) (string, error) {
	var g graphDoc
	if err := json.Unmarshal(raw, &g); err != nil {
		return "", fmt.Errorf("decoding graph: %w", err)
	}
	nodeDesc := make(map[uint64]string, len(g.Nodes))
	hist := map[string]int{}
	descs := make([]string, 0, len(g.Nodes)+len(g.Edges)+len(g.Paths))
	for _, n := range g.Nodes {
		ls := labelKey(n.Labels)
		hist["N"+ls]++
		p, err := canonProps(n.Props)
		if err != nil {
			return "", err
		}
		nodeDesc[n.ID] = "N" + ls + p
		descs = append(descs, nodeDesc[n.ID])
	}
	for _, e := range g.Edges {
		ls := labelKey(e.Labels)
		hist["E"+ls]++
		p, err := canonProps(e.Props)
		if err != nil {
			return "", err
		}
		descs = append(descs, "E"+ls+p+"("+nodeDesc[e.Src]+">"+nodeDesc[e.Dst]+")")
	}
	for _, pa := range g.Paths {
		ls := labelKey(pa.Labels)
		hist["P"+ls]++
		p, err := canonProps(pa.Props)
		if err != nil {
			return "", err
		}
		seq := make([]string, len(pa.Nodes))
		for i, n := range pa.Nodes {
			seq[i] = nodeDesc[n]
		}
		descs = append(descs, fmt.Sprintf("P%s%s/%d/%s", ls, p, len(pa.Edges), strings.Join(seq, ">")))
	}
	head := fmt.Sprintf("graph nodes=%d edges=%d paths=%d labels=%s", len(g.Nodes), len(g.Edges), len(g.Paths), histKey(hist))
	return head + " sha=" + hashSorted(descs), nil
}

func tableDigest(raw []byte) (string, error) {
	var t tableDoc
	if err := json.Unmarshal(raw, &t); err != nil {
		return "", fmt.Errorf("decoding table: %w", err)
	}
	rows := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		cells := make([]string, len(r))
		for j, c := range r {
			v, err := canonValue(c)
			if err != nil {
				return "", err
			}
			cells[j] = v
		}
		rows[i] = strings.Join(cells, "\x1f")
	}
	return fmt.Sprintf("table cols=%s rows=%d sha=%s", strings.Join(t.Cols, ","), len(t.Rows), hashSorted(rows)), nil
}

func labelKey(ls []string) string {
	s := append([]string(nil), ls...)
	sort.Strings(s)
	return ":" + strings.Join(s, ":")
}

func histKey(h map[string]int) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, h[k])
	}
	return b.String()
}

func hashSorted(items []string) string {
	sort.Strings(items)
	h := sha256.New()
	for _, s := range items {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func canonProps(p map[string]json.RawMessage) (string, error) {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for _, k := range keys {
		v, err := canonValue(p[k])
		if err != nil {
			return "", err
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
		b.WriteByte(';')
	}
	b.WriteByte('}')
	return b.String(), nil
}

// canonValue renders one interchange-encoded value canonically:
// graph-object references become their kind, set elements are sorted.
func canonValue(raw json.RawMessage) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", fmt.Errorf("decoding value %q: %w", raw, err)
	}
	return canon(v), nil
}

func canon(v any) string {
	switch x := v.(type) {
	case map[string]any:
		if len(x) == 1 {
			for k, inner := range x {
				switch k {
				case "node", "edge", "path":
					return "<" + k + ">"
				case "set":
					elems, _ := inner.([]any)
					cs := make([]string, len(elems))
					for i, e := range elems {
						cs[i] = canon(e)
					}
					sort.Strings(cs)
					return "set[" + strings.Join(cs, ",") + "]"
				}
			}
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ":" + canon(x[k])
		}
		return "{" + strings.Join(parts, ",") + "}"
	case []any:
		cs := make([]string, len(x))
		for i, e := range x {
			cs[i] = canon(e)
		}
		return "[" + strings.Join(cs, ",") + "]"
	case string:
		return fmt.Sprintf("%q", x)
	case nil:
		return "null"
	default:
		return fmt.Sprint(x)
	}
}
