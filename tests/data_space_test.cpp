#include "trace/data_space.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace pimsched {
namespace {

TEST(DataSpace, SingleArrayIds) {
  const DataSpace ds = DataSpace::singleSquare(4);
  EXPECT_EQ(ds.numArrays(), 1);
  EXPECT_EQ(ds.numData(), 16);
  EXPECT_EQ(ds.id(0, 0, 0), 0);
  EXPECT_EQ(ds.id(0, 1, 0), 4);
  EXPECT_EQ(ds.id(0, 3, 3), 15);
}

TEST(DataSpace, MultiArrayConcatenation) {
  DataSpace ds;
  const int a = ds.addArray("A", 2, 3);
  const int c = ds.addArray("C", 4, 4);
  EXPECT_EQ(ds.numData(), 6 + 16);
  EXPECT_EQ(ds.id(a, 0, 0), 0);
  EXPECT_EQ(ds.id(c, 0, 0), 6);
  EXPECT_EQ(ds.id(c, 3, 3), 21);
}

TEST(DataSpace, ElementRoundTrip) {
  DataSpace ds;
  ds.addArray("A", 3, 5);
  ds.addArray("B", 2, 2);
  for (DataId d = 0; d < ds.numData(); ++d) {
    const ElementRef e = ds.element(d);
    EXPECT_EQ(ds.id(e.array, e.row, e.col), d);
  }
}

TEST(DataSpace, RejectsOutOfRange) {
  const DataSpace ds = DataSpace::singleSquare(2);
  EXPECT_THROW((void)ds.id(0, 2, 0), std::out_of_range);
  EXPECT_THROW((void)ds.id(0, 0, -1), std::out_of_range);
  EXPECT_THROW((void)ds.element(-1), std::out_of_range);
  EXPECT_THROW((void)ds.element(4), std::out_of_range);
}

TEST(DataSpace, RejectsDegenerateArray) {
  DataSpace ds;
  EXPECT_THROW(ds.addArray("X", 0, 3), std::invalid_argument);
}

TEST(DataSpace, RejectsIdSpaceOverflow) {
  DataSpace ds;
  EXPECT_THROW(ds.addArray("X", 46341, 46341), std::invalid_argument);
  ds.addArray("A", 65536, 32767);
  EXPECT_THROW(ds.addArray("B", 1, 65536), std::invalid_argument);
  ds.addArray("B", 1, 65535);  // ids exactly fill the DataId range
  EXPECT_EQ(ds.numData(), std::numeric_limits<DataId>::max());
}

TEST(DataSpace, ArrayInfoRecordsName) {
  DataSpace ds;
  ds.addArray("payload", 2, 2);
  EXPECT_EQ(ds.arrays()[0].name, "payload");
  EXPECT_EQ(ds.arrays()[0].rows, 2);
  EXPECT_EQ(ds.arrays()[0].baseId, 0);
}

}  // namespace
}  // namespace pimsched
