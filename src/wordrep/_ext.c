/* Compiled kernels; each must match wordrep._kernels_py exactly.
 *
 * Written directly against the CPython C API, so any C compiler builds it.
 * The bitmask kernels work on 64-bit masks and accept n <= 64;
 * canonical_min_bits packs n*(n-1)/2 bits into one 64-bit word and accepts
 * n <= 11.  The dispatcher in wordrep._kernels routes larger inputs to the
 * pure-Python kernels.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned long long u64;

#define MAX_MASK_N 64
#define MAX_CANON_N 11

/* Index of the lowest set bit of a non-zero mask. */
static int
lowest_bit(u64 m)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(m);
#else
    int i = 0;
    while (!(m & 1)) {
        m >>= 1;
        i++;
    }
    return i;
#endif
}

/* Copies n masks out of a list of ints.  With check_range, a bit at n or
 * above raises IndexError, as the pure kernels do when they index by it. */
static int
read_masks(PyObject *list, int n, u64 *dst, int check_range)
{
    if (n < 0 || n > MAX_MASK_N) {
        PyErr_Format(PyExc_ValueError, "n must be in [0, %d]", MAX_MASK_N);
        return -1;
    }
    if (PyList_GET_SIZE(list) < n) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    for (int i = 0; i < n; i++) {
        dst[i] = PyLong_AsUnsignedLongLong(PyList_GET_ITEM(list, i));
        if (dst[i] == (u64)-1 && PyErr_Occurred())
            return -1;
        if (check_range && n < 64 && dst[i] >> n) {
            PyErr_SetString(PyExc_IndexError, "mask has a bit beyond n");
            return -1;
        }
    }
    return 0;
}

static PyObject *
masks_to_list(int n, const u64 *src)
{
    PyObject *out = PyList_New(n);
    if (out == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromUnsignedLongLong(src[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, v);
    }
    return out;
}

/* Strict descendants of every vertex, in a topological order computed by
 * Kahn's algorithm.  Returns 0 on a directed cycle. */
static int
fill_descendants(int n, const u64 *succ, u64 *desc)
{
    int indeg[MAX_MASK_N] = {0}, order[MAX_MASK_N], count = 0;
    for (int i = 0; i < n; i++)
        for (u64 m = succ[i]; m; m &= m - 1)
            indeg[lowest_bit(m)]++;
    for (int i = 0; i < n; i++)
        if (indeg[i] == 0)
            order[count++] = i;
    for (int head = 0; head < count; head++)
        for (u64 m = succ[order[head]]; m; m &= m - 1) {
            int j = lowest_bit(m);
            if (--indeg[j] == 0)
                order[count++] = j;
        }
    if (count < n)
        return 0;
    for (int k = n - 1; k >= 0; k--) {
        int i = order[k];
        desc[i] = succ[i];
        for (u64 m = succ[i]; m; m &= m - 1)
            desc[i] |= desc[lowest_bit(m)];
    }
    return 1;
}

static PyObject *
word_pair_counts(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"letters", "n", NULL};
    PyObject *letters, *out = NULL;
    int n;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!i", kwlist, &PyList_Type, &letters, &n))
        return NULL;
    if (n < 0)
        return PyErr_Format(PyExc_ValueError, "n must be non-negative");
    if (n > 0 && (size_t)n > PY_SSIZE_T_MAX / sizeof(Py_ssize_t) / (size_t)n)
        return PyErr_NoMemory();
    /* per[a*n + b]: 11s of pair {a, b} closed by a second a; last[a*n + b]
     * and last[b*n + a]: the letter of {a, b} seen most recently, or -1 */
    Py_ssize_t nn = (Py_ssize_t)n * n;
    Py_ssize_t *per = PyMem_Calloc(nn + 1, sizeof(Py_ssize_t));
    int *last = PyMem_Malloc((nn + 1) * sizeof(int));
    if (per == NULL || last == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < nn; i++)
        last[i] = -1;
    /* the size is read again each time: converting a letter may run code */
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(letters); i++) {
        long a = PyLong_AsLong(PyList_GET_ITEM(letters, i));
        if (a < 0 || a >= n) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_IndexError, "letter out of range");
            goto done;
        }
        int *row = last + a * n;
        for (int b = 0; b < n; b++) {
            if (b == a)
                continue;
            if (row[b] == a)
                per[a * n + b]++;
            row[b] = last[b * n + a] = (int)a;
        }
    }
    out = PyList_New((Py_ssize_t)n * (n - 1) / 2);
    if (out == NULL)
        goto done;
    Py_ssize_t p = 0;
    for (Py_ssize_t a = 0; a < n; a++)
        for (Py_ssize_t b = a + 1; b < n; b++) {
            PyObject *v = PyLong_FromSsize_t(per[a * n + b] + per[b * n + a]);
            if (v == NULL) {
                Py_CLEAR(out);
                goto done;
            }
            PyList_SET_ITEM(out, p++, v);
        }
done:
    PyMem_Free(per);
    PyMem_Free(last);
    return out;
}

static PyObject *
descendants(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "succ", NULL};
    PyObject *succ_list;
    int n;
    u64 succ[MAX_MASK_N], desc[MAX_MASK_N];
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iO!", kwlist, &n, &PyList_Type, &succ_list))
        return NULL;
    if (read_masks(succ_list, n, succ, 1) < 0)
        return NULL;
    if (!fill_descendants(n, succ, desc))
        return PyErr_Format(PyExc_ValueError, "directed cycle");
    return masks_to_list(n, desc);
}

static PyObject *
is_dag(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "succ", NULL};
    PyObject *succ_list;
    int n;
    u64 succ[MAX_MASK_N], desc[MAX_MASK_N];
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iO!", kwlist, &n, &PyList_Type, &succ_list))
        return NULL;
    if (read_masks(succ_list, n, succ, 1) < 0)
        return NULL;
    return PyBool_FromLong(fill_descendants(n, succ, desc));
}

static PyObject *
forced_shortcut_pair(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "succ", "adj", NULL};
    PyObject *succ_list, *adj_list;
    int n;
    u64 succ[MAX_MASK_N], adj[MAX_MASK_N], desc[MAX_MASK_N], anc[MAX_MASK_N] = {0};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iO!O!", kwlist, &n, &PyList_Type, &succ_list,
                                     &PyList_Type, &adj_list))
        return NULL;
    if (read_masks(succ_list, n, succ, 1) < 0 || read_masks(adj_list, n, adj, 0) < 0)
        return NULL;
    if (!fill_descendants(n, succ, desc))
        return PyErr_Format(PyExc_ValueError, "directed cycle");
    for (int i = 0; i < n; i++)
        for (u64 m = desc[i]; m; m &= m - 1)
            anc[lowest_bit(m)] |= 1ULL << i;
    /* same scan order as the pure kernel: arcs a->b by a then b, then u
     * inside the a-to-b interval, then the lowest w */
    for (int a = 0; a < n; a++)
        for (u64 mb = succ[a]; mb; mb &= mb - 1) {
            int b = lowest_bit(mb);
            u64 between = (desc[a] & anc[b]) | 1ULL << a | 1ULL << b;
            for (u64 mu = between; mu; mu &= mu - 1) {
                int u = lowest_bit(mu);
                u64 bad = desc[u] & between & ~adj[u] & ~(1ULL << u);
                if (bad)
                    return Py_BuildValue("(iiii)", a, b, u, lowest_bit(bad));
            }
        }
    Py_RETURN_NONE;
}

/* State of the search over class-respecting orderings: position p of an
 * ordering takes a free vertex of cls[p], the class it belongs to. */
typedef struct {
    int n;
    u64 adj[MAX_CANON_N];
    u64 pair_bit[MAX_CANON_N][MAX_CANON_N]; /* bit of pair (a, b), a < b */
    u64 lower_twins[MAX_CANON_N];           /* twins u < v of each vertex v */
    u64 cls[MAX_CANON_N];
    u64 free;                               /* vertices not yet placed */
    int order[MAX_CANON_N];
    u64 best;
} Canon;

/* Places positions p.. of the ordering.  ``bits`` already holds every pair
 * inside positions 0..p-1; placing position p adds the pairs (a, p), a < p.
 * Bits are only ever added, so a prefix whose bits are not below the best
 * found so far cannot lead to a smaller bitstring.  Swapping two free twins
 * (neighbourhoods equal apart from each other) is an automorphism fixing the
 * prefix, so a vertex with a free lower twin in its class is skipped, as in
 * the pure kernel. */
static void
canon_place(Canon *c, int p, u64 bits)
{
    if (p == c->n) {
        c->best = bits;
        return;
    }
    u64 cand = c->free & c->cls[p];
    for (u64 m = cand; m; m &= m - 1) {
        int v = lowest_bit(m);
        if (c->lower_twins[v] & cand)
            continue;
        u64 next = bits;
        for (int a = 0; a < p; a++)
            if (c->adj[c->order[a]] >> v & 1)
                next |= c->pair_bit[a][p];
        if (next >= c->best)
            continue;
        c->free ^= 1ULL << v;
        c->order[p] = v;
        canon_place(c, p + 1, next);
        c->free ^= 1ULL << v;
    }
}

static PyObject *
canonical_min_bits(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "adj", "classes", NULL};
    PyObject *adj_list, *classes;
    int n;
    Canon c;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iO!O!", kwlist, &n, &PyList_Type, &adj_list,
                                     &PyList_Type, &classes))
        return NULL;
    if (n < 0 || n > MAX_CANON_N)
        return PyErr_Format(PyExc_ValueError, "n must be in [0, %d]", MAX_CANON_N);
    if (read_masks(adj_list, n, c.adj, 0) < 0)
        return NULL;
    c.n = n;
    /* positions taken so far, and the vertices they hold; a vertex met twice
     * leaves fewer than n distinct ones, so the classes are no partition */
    int slots = 0;
    u64 seen = 0;
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(classes); k++) {
        PyObject *cls = PySequence_Fast(PyList_GET_ITEM(classes, k), "classes must hold sequences");
        if (cls == NULL)
            return NULL;
        int start = slots;
        u64 mask = 0;
        for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(cls); i++) {
            long v = slots < n ? PyLong_AsLong(PySequence_Fast_GET_ITEM(cls, i)) : -1;
            if (v < 0 || v >= n || (seen >> v & 1)) {
                Py_DECREF(cls);
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_ValueError, "classes must partition range(%d)", n);
                return NULL;
            }
            seen |= 1ULL << v;
            mask |= 1ULL << v;
            slots++;
        }
        Py_DECREF(cls);
        for (int p = start; p < slots; p++)
            c.cls[p] = mask;
    }
    if (slots != n)
        return PyErr_Format(PyExc_ValueError, "classes must partition range(%d)", n);
    for (int v = 0; v < n; v++) {
        c.lower_twins[v] = 0;
        for (int u = 0; u < v; u++)
            if ((c.adj[u] & ~(1ULL << v)) == (c.adj[v] & ~(1ULL << u)))
                c.lower_twins[v] |= 1ULL << u;
    }
    int nbits = n * (n - 1) / 2, p = 0;
    for (int a = 0; a < n; a++)
        for (int b = a + 1; b < n; b++)
            c.pair_bit[a][b] = 1ULL << (nbits - 1 - p++);
    c.free = seen;
    c.best = ~0ULL;
    canon_place(&c, 0, 0);
    return PyLong_FromUnsignedLongLong(c.best);
}

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_VARARGS | METH_KEYWORDS, PyDoc_STR(doc)}

static PyMethodDef kernel_methods[] = {
    KERNEL(word_pair_counts, "word_pair_counts(letters, n): 11-counts of every letter pair."),
    KERNEL(descendants, "descendants(n, succ): strict-descendant masks of a DAG."),
    KERNEL(is_dag, "is_dag(n, succ): whether the successor masks are acyclic."),
    KERNEL(forced_shortcut_pair, "forced_shortcut_pair(n, succ, adj): (a, b, u, w) or None."),
    KERNEL(canonical_min_bits, "canonical_min_bits(n, adj, classes): minimum packed bits."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "wordrep._ext",
    .m_doc = "Compiled kernels; each must match wordrep._kernels_py exactly.",
    .m_size = 0,
    .m_methods = kernel_methods,
};

/* multi-phase initialisation (PEP 489): loading the file, as the kernel
 * tests do, does not also register the module in sys.modules */
PyMODINIT_FUNC
PyInit__ext(void)
{
    return PyModuleDef_Init(&kernel_module);
}
