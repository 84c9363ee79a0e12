package gcore

import "context"

// Compatibility surface.
//
// The canonical engine API is context-first — EvalContext,
// EvalScriptContext, EvalStatementContext, ExplainContext,
// ExplainAnalyzeContext, Prepare — as captured by the Querier
// interface, with construction-time Options (WithLimits,
// WithParallelism, WithDefaultGraph, ...) for configuration and
// Session for per-caller state. Everything in this file predates that
// surface and remains only for source compatibility: the context-free
// wrappers simply supply context.Background(), and the deprecated
// setters reconfigure a live engine under the writer lock. New code
// should not use them; per-session defaults and limits belong on a
// Session, which overrides them per execution without touching the
// engine-wide configuration.

// Eval is EvalContext with context.Background().
func (e *Engine) Eval(src string) (*Result, error) {
	return e.EvalContext(context.Background(), src)
}

// EvalScript is EvalScriptContext with context.Background().
func (e *Engine) EvalScript(src string) ([]*Result, error) {
	return e.EvalScriptContext(context.Background(), src)
}

// EvalStatement is EvalStatementContext with context.Background().
func (e *Engine) EvalStatement(stmt *Statement) (*Result, error) {
	return e.EvalStatementContext(context.Background(), stmt)
}

// Explain is ExplainContext with context.Background().
func (e *Engine) Explain(src string) (string, error) {
	return e.ExplainContext(context.Background(), src)
}

// ExplainAnalyze is ExplainAnalyzeContext with context.Background().
func (e *Engine) ExplainAnalyze(src string) (string, error) {
	return e.ExplainAnalyzeContext(context.Background(), src)
}

// SetLimits installs per-statement resource limits: intermediate
// binding rows (MaxBindings), explored path-search product states
// (MaxPathFrontier), constructed result elements (MaxResultElements)
// and wall-clock time (Timeout). A zero field means unlimited for that
// resource. Exceeding a limit fails the statement with a *QueryError
// of KindBudget (KindTimeout for the deadline) naming the limit and
// the progress when it tripped; the engine and its graphs are
// untouched.
//
// Deprecated: prefer WithLimits at construction, or Session.SetLimits
// for per-caller overrides; SetLimits remains for reconfiguring a live
// engine.
func (e *Engine) SetLimits(l Limits) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ev.SetLimits(l)
}

// SetParallelism sets the worker count used for intra-query
// parallelism (node scans, edge expansion, per-source path searches).
// Zero (the default) uses runtime.GOMAXPROCS; one forces fully
// sequential evaluation. Partition results are merged in input order,
// so query results are identical for every setting — parallelism
// never changes query semantics.
//
// Deprecated: prefer WithParallelism at construction; SetParallelism
// remains for reconfiguring a live engine.
func (e *Engine) SetParallelism(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ev.SetParallelism(n)
}

// SetDefaultGraph selects the graph used when MATCH omits ON. The
// graph must already be registered.
//
// Deprecated: prefer WithDefaultGraph at construction (which also
// accepts a name registered later) or Session.SetDefaultGraph for a
// per-session default; SetDefaultGraph remains for switching the
// engine-wide default on a live engine.
func (e *Engine) SetDefaultGraph(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.cat.SetDefault(name); err != nil {
		return err
	}
	e.pendingDefault = ""
	return nil
}
