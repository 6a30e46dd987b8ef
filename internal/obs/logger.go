package obs

// Logger is a printf sink. A nil *Logger is a valid sink that drops
// everything — the replacement for the raw `logf func(string, ...any)`
// callback the attack used to thread around, whose nil case every
// caller had to guard.
type Logger struct {
	fn func(string, ...any)
}

// NewFuncLogger adapts a printf-style callback. The format string and
// args pass through unchanged, so output stays byte-identical to the
// pre-telemetry logf path. A nil fn yields a nil logger (valid, drops
// everything).
func NewFuncLogger(fn func(string, ...any)) *Logger {
	if fn == nil {
		return nil
	}
	return &Logger{fn: fn}
}

// Infof passes one line to the callback; a nil logger drops it.
func (l *Logger) Infof(format string, args ...any) {
	if l != nil {
		l.fn(format, args...)
	}
}
