package gcore

import "context"

// Compatibility surface.
//
// The canonical engine API is context-first — EvalContext,
// EvalScriptContext, EvalStatementContext, ExplainContext,
// ExplainAnalyzeContext, Prepare — as captured by the Querier
// interface, with construction-time Options (WithLimits,
// WithParallelism, WithDefaultGraph, ...) for configuration and
// Session for per-caller defaults and limits. The context-free
// wrappers below predate that surface and remain for source
// compatibility: they simply supply context.Background().

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
