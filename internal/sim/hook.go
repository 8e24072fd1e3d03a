package sim

// HookPos identifies where in the engine's dispatch loop a hook fires.
type HookPos int

// Hook positions.
const (
	HookPosBeforeEvent HookPos = iota
	HookPosAfterEvent
)

// HookCtx carries the context of a hook invocation.
type HookCtx struct {
	Pos  HookPos
	Now  VTime
	Item any
}

// Hook observes engine activity. Hooks enable AkitaRTM-style real-time
// monitoring without touching component logic.
type Hook interface {
	Func(ctx HookCtx)
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(ctx HookCtx)

// Func calls f(ctx).
func (f HookFunc) Func(ctx HookCtx) { f(ctx) }
