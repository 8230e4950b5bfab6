package cc

import (
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/sim"
)

// compileRun compiles src, links it without a scratchpad, runs it and
// returns main's return value.
func compileRun(t *testing.T, src string) int32 {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	exe, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res, err := sim.Run(exe, sim.Options{MaxInstrs: 50_000_000})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return int32(res.ExitCode)
}

func expectResult(t *testing.T, src string, want int32) {
	t.Helper()
	if got := compileRun(t, src); got != want {
		t.Errorf("program returned %d, want %d\nsource:\n%s", got, want, src)
	}
}

func expectCompileError(t *testing.T, src, substr string) {
	t.Helper()
	_, err := Compile(src)
	if err == nil {
		t.Fatalf("expected compile error containing %q, got success", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestReturnConstant(t *testing.T) {
	expectResult(t, `int main() { return 42; }`, 42)
}

func TestArithmeticPrecedence(t *testing.T) {
	cases := []struct {
		expr string
		want int32
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 - 3 - 2", 5},
		{"100 / 7", 14},
		{"100 % 7", 2},
		{"-100 / 7", -14},
		{"1 << 10", 1024},
		{"-16 >> 2", -4},
		{"0xFF & 0x0F", 15},
		{"8 | 1", 9},
		{"5 ^ 3", 6},
		{"~0", -1},
		{"-(3 + 4)", -7},
		{"1 + 2 == 3", 1},
		{"3 < 2", 0},
		{"2 <= 2", 1},
		{"5 > -5", 1},
		{"1 && 0", 0},
		{"1 || 0", 1},
		{"!5", 0},
		{"!0", 1},
		{"1 ? 11 : 22", 11},
		{"0 ? 11 : 22", 22},
		{"2 + 3 * 4 - 10 / 2", 9},
		{"1 << 4 >> 2", 4},
		{"7 & 3 | 8", 11},
	}
	for _, c := range cases {
		expectResult(t, "int main() { return "+c.expr+"; }", c.want)
	}
}

func TestLocalsAndAssignment(t *testing.T) {
	expectResult(t, `
int main() {
    int a = 5;
    int b = a * 2;
    a = a + b;
    a += 10;
    a -= 3;
    a *= 2;
    a /= 4;
    a %= 7;
    return a; /* ((5+10+10-3)*2/4)%7 = (22*2/4)%7 = 11%7 = 4 */
}`, 4)
}

func TestCompoundShiftAndBitAssign(t *testing.T) {
	expectResult(t, `
int main() {
    int a = 1;
    a <<= 6;  /* 64 */
    a |= 15;  /* 79 */
    a &= 0x5F; /* 79 & 95 = 79 */
    a ^= 0x0F; /* 64+15 ^ 15 = 64 */
    a >>= 3;
    return a; /* 8 */
}`, 8)
}

func TestAssignmentChains(t *testing.T) {
	expectResult(t, `
int main() {
    int a; int b; int c;
    a = b = c = 7;
    return a + b + c;
}`, 21)
}

func TestGlobalScalars(t *testing.T) {
	expectResult(t, `
int counter = 10;
short s = -3;
uchar u = 250;
char c = -5;
int main() {
    counter = counter + 1;
    return counter + s + u + c; /* 11 - 3 + 250 - 5 = 253 */
}`, 253)
}

func TestGlobalArraysAllWidths(t *testing.T) {
	expectResult(t, `
int words[4] = {10, -20, 30, -40};
short shorts[3] = {-1, 2, -3};
uchar bytes[3] = {100, 200, 255};
char signedbytes[2] = {-100, 100};
int main() {
    int sum = 0;
    int i;
    for (i = 0; i < 4; i += 1) sum += words[i];    /* -20 */
    for (i = 0; i < 3; i += 1) sum += shorts[i];   /* -22 */
    for (i = 0; i < 3; i += 1) sum += bytes[i];    /* +555 → 533 */
    sum += signedbytes[0] + signedbytes[1];        /* 533 */
    return sum;
}`, 533)
}

func TestArrayStoreWidths(t *testing.T) {
	expectResult(t, `
short buf[4];
uchar b[4];
int main() {
    buf[0] = 70000;   /* truncates to 70000-65536 = 4464 */
    b[1] = 300;       /* truncates to 44 */
    return buf[0] + b[1];
}`, 4508)
}

func TestWhileLoop(t *testing.T) {
	expectResult(t, `
int main() {
    int n = 0;
    int i = 1;
    __loopbound(100) while (i <= 100) {
        n += i;
        i += 1;
    }
    return n;
}`, 5050)
}

func TestDoWhileRunsOnce(t *testing.T) {
	expectResult(t, `
int main() {
    int n = 0;
    __loopbound(1) do { n += 1; } while (0);
    return n;
}`, 1)
}

func TestForLoopVariants(t *testing.T) {
	expectResult(t, `
int main() {
    int sum = 0;
    for (int i = 0; i < 10; i += 1) sum += i;       /* 45 */
    for (int j = 10; j > 0; j -= 2) sum += 1;       /* +5 */
    int k;
    for (k = 0; k != 6; k = k + 3) sum += k;        /* 0+3 = +3 */
    return sum;
}`, 53)
}

func TestBreakContinue(t *testing.T) {
	expectResult(t, `
int main() {
    int sum = 0;
    for (int i = 0; i < 100; i += 1) {
        if (i == 10) break;
        if (i % 2 == 0) continue;
        sum += i;  /* 1+3+5+7+9 */
    }
    return sum;
}`, 25)
}

func TestNestedLoops(t *testing.T) {
	expectResult(t, `
int main() {
    int n = 0;
    for (int i = 0; i < 7; i += 1)
        for (int j = 0; j < 5; j += 1)
            n += 1;
    return n;
}`, 35)
}

func TestFunctionCallsAndArgs(t *testing.T) {
	expectResult(t, `
int add4(int a, int b, int c, int d) { return a + b + c + d; }
int twice(int x) { return x * 2; }
int main() {
    return add4(1, twice(2), 3, twice(4)); /* 1+4+3+8 */
}`, 16)
}

func TestRecursionWorksInSimulator(t *testing.T) {
	expectResult(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }`, 144)
}

func TestShortCircuitSideEffects(t *testing.T) {
	expectResult(t, `
int calls = 0;
int bump() { calls += 1; return 1; }
int main() {
    int r = 0;
    if (0 && bump()) r = 1;    /* bump not called */
    if (1 || bump()) r += 2;   /* bump not called */
    if (1 && bump()) r += 4;   /* called */
    return r * 10 + calls;
}`, 61)
}

func TestTernaryNested(t *testing.T) {
	expectResult(t, `
int classify(int x) { return x < 0 ? -1 : x == 0 ? 0 : 1; }
int main() { return classify(-5) * 100 + classify(0) * 10 + classify(7); }`, -99)
}

func TestGlobalConstTable(t *testing.T) {
	expectResult(t, `
const short quantization[8] = {-8, -4, -2, -1, 1, 2, 4, 8};
int main() {
    int s = 0;
    for (int i = 0; i < 8; i += 1) s += quantization[i] * i;
    return s; /* 0-4-4-3+4+10+24+56 = 83 */
}`, 83)
}

func TestScopingAndShadowing(t *testing.T) {
	expectResult(t, `
int x = 1;
int main() {
    int r = x;      /* 1 */
    int x = 10;
    r += x;         /* 11 */
    {
        int x = 100;
        r += x;     /* 111 */
    }
    r += x;         /* 121 */
    return r;
}`, 121)
}

func TestManyLocalsLargeFrame(t *testing.T) {
	// Forces frame offsets beyond the 124-byte LDR/STR immediate range.
	var sb strings.Builder
	sb.WriteString("int main() {\n")
	for i := 0; i < 50; i++ {
		sb.WriteString("int v")
		sb.WriteByte(byte('0' + i/10))
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString(" = ")
		sb.WriteString([]string{"1", "2", "3", "4", "5"}[i%5])
		sb.WriteString(";\n")
	}
	sb.WriteString("return v00 + v49 + v25;\n}") // 1 + 5 + 1
	expectResult(t, sb.String(), 7)
}

func TestCharLiteralsAndHex(t *testing.T) {
	expectResult(t, `int main() { return 'A' + 0x10; }`, 81)
}

func TestCommaLocalDecls(t *testing.T) {
	expectResult(t, `int main() { int a = 1, b = 2, c; c = a + b; return c; }`, 3)
}

func TestVoidFunction(t *testing.T) {
	expectResult(t, `
int acc = 0;
void step(int k) { acc += k; }
int main() { step(3); step(4); return acc; }`, 7)
}

func TestDivisionByNegativePowers(t *testing.T) {
	expectResult(t, `
int main() {
    int a = -1000;
    return a / -8 + a % 3; /* 125 + (-1) */
}`, 124)
}

func TestAutoLoopBoundDerivation(t *testing.T) {
	prog, err := Compile(`
int a[10];
int main() {
    for (int i = 0; i < 10; i += 1) a[i] = i;
    int s = 0;
    for (int j = 9; j >= 0; j -= 3) s += a[j];
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	mo := prog.Object("main")
	if len(mo.LoopBounds) != 2 {
		t.Fatalf("loop bounds = %+v, want 2 derived bounds", mo.LoopBounds)
	}
	got := map[int64]bool{}
	for _, lb := range mo.LoopBounds {
		got[lb.MaxIter] = true
	}
	if !got[10] || !got[4] {
		t.Fatalf("bounds %+v, want {10, 4}", mo.LoopBounds)
	}
}

func TestNoAutoBoundWhenBodyWritesInduction(t *testing.T) {
	prog, err := Compile(`
int main() {
    int n = 0;
    __loopbound(50) for (int i = 0; i < 10; i += 1) {
        if (n > 5) i -= 1;
        n += 1;
        if (n > 40) break;
    }
    return n;
}`)
	if err != nil {
		t.Fatal(err)
	}
	mo := prog.Object("main")
	if len(mo.LoopBounds) != 1 || mo.LoopBounds[0].MaxIter != 50 {
		t.Fatalf("bounds = %+v, want the explicit 50 only", mo.LoopBounds)
	}
}

func TestAccessHintsEmitted(t *testing.T) {
	prog, err := Compile(`
int table[4] = {1, 2, 3, 4};
int g;
int main() {
    g = table[2];
    return g;
}`)
	if err != nil {
		t.Fatal(err)
	}
	mo := prog.Object("main")
	targets := map[string]int{}
	for _, h := range mo.Accesses {
		targets[h.Target]++
	}
	if targets["table"] != 1 || targets["g"] != 2 {
		t.Fatalf("access hints = %v, want table:1 g:2", targets)
	}
}

func TestCompileErrors(t *testing.T) {
	expectCompileError(t, `int main() { return x; }`, "undefined variable")
	expectCompileError(t, `int main() { return f(); }`, "undefined function")
	expectCompileError(t, `int f(int a) { return a; } int main() { return f(); }`, "wants 1")
	expectCompileError(t, `int a[4]; int main() { return a; }`, "without index")
	expectCompileError(t, `int x; int main() { return x[0]; }`, "not an array")
	expectCompileError(t, `const int k = 3; int main() { k = 4; return k; }`, "const")
	expectCompileError(t, `int main() { break; }`, "break outside loop")
	expectCompileError(t, `int main() { int a; int a; return 0; }`, "redeclared")
	expectCompileError(t, `void v() {} int main() { return 0; } void v() {}`, "redefined")
	expectCompileError(t, `int main(int a) { return a; }`, "no parameters")
	expectCompileError(t, `int f(int a, int b, int c, int d, int e) { return 0; } int main() { return 0; }`, "at most 4")
	expectCompileError(t, `int main() { int a[3]; return 0; }`, "local arrays")
	expectCompileError(t, `int main() { 3 = 4; return 0; }`, "not assignable")
	expectCompileError(t, `int main() { return 1 }`, "expected")
	expectCompileError(t, `void f() { return 3; } int main() { return 0; }`, "void function")
	expectCompileError(t, `int __divsi3; int main() { return 0; }`, "reserved for the runtime")
	expectCompileError(t, `int a[262144]; int b[16]; int main() { return b[0]; }`, "globals exceed")
	expectCompileError(t, `int a[4]; int f(){return 1;} int main(){ a[f()] += 1; return 0; }`, "side-effecting index")
}

func TestParserErrorsHaveLocations(t *testing.T) {
	_, err := Compile("int main() {\n  return @;\n}")
	if err == nil || !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error %v should carry line 2", err)
	}
}

func TestComments(t *testing.T) {
	expectResult(t, `
// line comment
int main() {
    /* block
       comment */
    return 5; // trailing
}`, 5)
}

func TestDeepExpressionSpilling(t *testing.T) {
	// Deeply nested expression exercises the operand stack.
	expectResult(t, `
int main() {
    return ((((1+2)*(3+4))+((5+6)*(7+8)))*2 - ((9+10)*(11+12)))/(1+1);
    /* ((21 + 165)*2 - 437)/2 = (372-437)/2 = -65/2 = -32 */
}`, -32)
}

func TestCallArgumentOrder(t *testing.T) {
	expectResult(t, `
int weigh(int a, int b, int c, int d) { return a*1000 + b*100 + c*10 + d; }
int main() { return weigh(1, 2, 3, 4); }`, 1234)
}

func TestGlobalInitZeroFill(t *testing.T) {
	expectResult(t, `
int arr[5] = {7};
int main() {
    int s = 0;
    for (int i = 0; i < 5; i += 1) s += arr[i];
    return s;
}`, 7)
}

func TestNegativeArrayInitialisers(t *testing.T) {
	expectResult(t, `
short tbl[4] = {-1, -2, -3, -4};
int main() { return tbl[0] + tbl[1] + tbl[2] + tbl[3]; }`, -10)
}

func TestUnsignedLoadsZeroExtend(t *testing.T) {
	expectResult(t, `
ushort us[1] = {0xFFFF};
uchar ub[1] = {0xFF};
int main() { return (us[0] == 0xFFFF) + (ub[0] == 0xFF) * 2; }`, 3)
}

func TestModuloAndDivisionInLoop(t *testing.T) {
	expectResult(t, `
int main() {
    int hits = 0;
    for (int i = 1; i <= 30; i += 1) {
        if (i % 3 == 0 && i / 3 % 2 == 1) hits += 1;
    }
    return hits; /* i=3,9,15,21,27 */
}`, 5)
}
