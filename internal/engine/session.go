package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Session is per-caller engine state: an executor-mode and cost-report
// toggle, named prepared statements, and running meter totals over every
// statement the caller ran. Every front-end connection (shell, TCP client,
// embedded library user) owns one Session; all methods are safe for
// concurrent use (the \stats handler of one connection may snapshot
// another's totals).
type Session struct {
	// ID identifies the session in stats output.
	ID int64

	// Totals accumulates the contention-adjusted meters of this session's
	// queries.
	Totals device.SharedMeter

	eng *Engine

	mu       sync.Mutex
	cost     bool
	mode     Mode
	prepared map[string]*Stmt
}

// Query compiles (through the engine's plan cache) and executes one
// statement under ctx, routed by the session's executor mode.
func (s *Session) Query(ctx context.Context, src string) (*Result, error) {
	b, err := s.eng.compile(src)
	if err != nil {
		return nil, err
	}
	return s.eng.exec(ctx, s, b, src)
}

// QueryPlan executes a logical plan.Query directly — the programmatic
// entry point for callers (benchmarks, experiments) that build plans
// without SQL text. Routing, admission control and contention charging are
// identical to Query.
func (s *Session) QueryPlan(ctx context.Context, q plan.Query) (*Result, error) {
	return s.eng.exec(ctx, s, &sql.Binding{Query: q}, "(plan.Query on "+q.Table+")")
}

// Prepare compiles a statement into a reusable Stmt bound to this session.
// The source may contain $1..$9 placeholders where integer or decimal
// literals appear (outside string literals); Stmt.Exec substitutes the
// parameters at execution time. Compilation errors surface here, not at
// first Exec: parameterized statements are validated against dummy
// literals, so a typo never hides behind a successful prepare.
func (s *Session) Prepare(ctx context.Context, src string) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, err := countParams(src)
	if err != nil {
		return nil, err
	}
	st := &Stmt{sess: s, src: src, params: n}
	if n == 0 {
		b, deps, err := s.eng.compileCached(src)
		if err != nil {
			return nil, err
		}
		st.binding = b
		st.deps = deps
		return st, nil
	}
	// Dummy-validate: every literal position in the grammar is numeric, so
	// substituting 1 for each placeholder exercises the full front end.
	dummies := make([]any, n)
	for i := range dummies {
		dummies[i] = 1
	}
	probe, err := substituteParams(src, dummies)
	if err != nil {
		return nil, err
	}
	if _, err := sql.Compile(s.eng.cat, probe); err != nil {
		return nil, err
	}
	return st, nil
}

// PrepareNamed compiles a statement and stores it under name for Stmt
// lookup (the \prepare / \run protocol surface).
func (s *Session) PrepareNamed(ctx context.Context, name, src string) (*Stmt, error) {
	st, err := s.Prepare(ctx, src)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.prepared[name] = st
	s.mu.Unlock()
	return st, nil
}

// Stmt returns a statement previously stored with PrepareNamed.
func (s *Session) Stmt(name string) (*Stmt, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.prepared[name]
	return st, ok
}

// ToggleCost flips the cost-report toggle and returns the new state.
func (s *Session) ToggleCost() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cost = !s.cost
	return s.cost
}

// Cost reports whether cost reporting is on.
func (s *Session) Cost() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cost
}

// Mode returns the session's executor mode.
func (s *Session) Mode() Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode
}

// SetMode sets the executor mode.
func (s *Session) SetMode(m Mode) {
	s.mu.Lock()
	s.mode = m
	s.mu.Unlock()
}

// SetModeName sets the executor mode from its text form.
func (s *Session) SetModeName(name string) error {
	m, err := ParseMode(name)
	if err != nil {
		return err
	}
	s.SetMode(m)
	return nil
}

// Close deregisters the session from its engine. Closing is idempotent;
// a closed session can still execute (it just no longer counts as active).
func (s *Session) Close() error {
	s.eng.dropSession(s.ID)
	return nil
}

// Stmt is a compiled statement bound to a session. Statements without
// placeholders hold their binding together with the schema epochs of its
// tables: an Exec after the table was dropped or re-created recompiles
// instead of executing the stale binding. Parameterized statements compile
// at Exec time after literal substitution — bypassing the shared plan
// cache, since per-parameter-set texts would thrash its LRU without ever
// being re-hit.
type Stmt struct {
	sess   *Session
	src    string
	params int

	mu      sync.Mutex
	binding *sql.Binding
	deps    map[string]uint64
}

// Exec executes the prepared statement under ctx. For parameterized
// statements (src containing $1..$9), params supplies one literal per
// placeholder — int, int64, float64 or string forms of the SQL literal.
func (st *Stmt) Exec(ctx context.Context, params ...any) (*Result, error) {
	if len(params) != st.params {
		return nil, fmt.Errorf("engine: statement takes %d parameters, got %d", st.params, len(params))
	}
	var b *sql.Binding
	src := st.src
	if st.params > 0 {
		var err error
		if src, err = substituteParams(st.src, params); err != nil {
			return nil, err
		}
		if b, err = sql.Compile(st.sess.eng.cat, src); err != nil {
			return nil, err
		}
	} else {
		eng := st.sess.eng
		st.mu.Lock()
		if !eng.depsValid(st.deps) {
			nb, deps, err := eng.compileCached(st.src)
			if err != nil {
				st.mu.Unlock()
				return nil, fmt.Errorf("engine: prepared statement is stale and failed to recompile: %w", err)
			}
			st.binding, st.deps = nb, deps
		}
		b = st.binding
		st.mu.Unlock()
	}
	return st.sess.eng.exec(ctx, st.sess, b, src)
}

// forEachParam walks src outside single-quoted string literals and calls
// fn for every $n placeholder with its byte range and 0-based index. A $
// followed by more than one digit is an error — only $1..$9 exist, and
// silently reading $12 as $1 followed by a literal 2 would splice together
// a different statement than the caller wrote.
func forEachParam(src string, fn func(start, end, idx int)) error {
	inString := false
	for i := 0; i < len(src); i++ {
		switch {
		case src[i] == '\'':
			inString = !inString
		case !inString && src[i] == '$':
			if i+1 >= len(src) || src[i+1] < '1' || src[i+1] > '9' {
				return fmt.Errorf("engine: invalid parameter placeholder at byte %d (use $1..$9)", i)
			}
			if i+2 < len(src) && src[i+2] >= '0' && src[i+2] <= '9' {
				return fmt.Errorf("engine: parameter placeholder at byte %d out of range (only $1..$9 are supported)", i)
			}
			fn(i, i+2, int(src[i+1]-'1'))
			i++
		}
	}
	return nil
}

// countParams returns the highest $n placeholder index in src (0 if none).
func countParams(src string) (int, error) {
	max := 0
	err := forEachParam(src, func(_, _, idx int) {
		if idx+1 > max {
			max = idx + 1
		}
	})
	return max, err
}

// substituteParams renders each parameter as a SQL literal and splices it
// over its $n placeholder. Every rendered literal must survive the lexer
// as plain tokens, so parameters cannot smuggle in statement structure.
func substituteParams(src string, params []any) (string, error) {
	rendered := make([]string, len(params))
	for i, p := range params {
		var lit string
		switch v := p.(type) {
		case int:
			lit = strconv.Itoa(v)
		case int64:
			lit = strconv.FormatInt(v, 10)
		case float64:
			lit = strconv.FormatFloat(v, 'f', -1, 64)
		case string:
			lit = v
		default:
			return "", fmt.Errorf("engine: unsupported parameter type %T for $%d", p, i+1)
		}
		if !validLiteral(lit) {
			return "", fmt.Errorf("engine: parameter $%d (%q) is not a numeric or string literal", i+1, lit)
		}
		rendered[i] = lit
	}
	var sb strings.Builder
	at := 0
	err := forEachParam(src, func(start, end, idx int) {
		sb.WriteString(src[at:start])
		sb.WriteString(rendered[idx])
		at = end
	})
	if err != nil {
		return "", err
	}
	sb.WriteString(src[at:])
	return sb.String(), nil
}

// validLiteral accepts optionally signed decimal numbers and single-quoted
// strings without embedded quotes.
func validLiteral(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '\'' {
		return len(s) >= 2 && s[len(s)-1] == '\'' && !strings.ContainsAny(s[1:len(s)-1], "'\n\r")
	}
	body := s
	if body[0] == '-' || body[0] == '+' {
		body = body[1:]
	}
	if body == "" {
		return false
	}
	dots := 0
	for i := 0; i < len(body); i++ {
		switch {
		case body[i] >= '0' && body[i] <= '9':
		case body[i] == '.' && dots == 0 && i > 0 && i < len(body)-1:
			dots++
		default:
			return false
		}
	}
	return true
}
